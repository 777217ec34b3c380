// Package synthetic generates DCE-MRI phantom studies — the stand-in for
// the paper's clinical dynamic contrast-enhanced breast MRI dataset (32 time
// steps of 32-slice volumes, 2-byte pixels).
//
// During a DCE-MRI study a contrast agent is injected; tumors take up the
// agent quickly (they are highly vascularized) and wash it out as waste,
// while normal tissue enhances slowly and weakly. The phantom reproduces the
// parts of that physiology that texture analysis actually sees:
//
//   - a spatially smooth anatomical baseline (sum of random Gaussian blobs),
//     giving the near-diagonal co-occurrence structure of real MRI (~1%
//     non-zero GLCM entries at G=32);
//   - one or more tumor lesions with gamma-variate uptake/washout curves;
//   - vessels with fast, sharp enhancement;
//   - additive Gaussian acquisition noise (the high-SNR limit of Rician
//     noise).
//
// Generation is fully deterministic for a given Config.
package synthetic

import (
	"math"
	"math/rand"

	"haralick4d/internal/volume"
)

// Config parameterizes a phantom study.
type Config struct {
	Dims       [4]int  // X, Y, Z, T
	Seed       int64   // RNG seed; same seed → identical study
	NumBlobs   int     // anatomical structures (default 24)
	NumTumors  int     // enhancing lesions (default 2)
	NumVessels int     // fast-enhancing vessels (default 3)
	Baseline   float64 // mean tissue intensity (default 400)
	NoiseSigma float64 // acquisition noise std dev (default 8)
}

func (c *Config) defaults() {
	if c.NumBlobs == 0 {
		c.NumBlobs = 24
	}
	if c.NumTumors == 0 {
		c.NumTumors = 2
	}
	if c.NumVessels == 0 {
		c.NumVessels = 3
	}
	if c.Baseline == 0 {
		c.Baseline = 400
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 8
	}
}

// blob is an anisotropic 3D Gaussian intensity structure.
type blob struct {
	cx, cy, cz float64
	rx, ry, rz float64
	amp        float64
}

func (b blob) at(x, y, z float64) float64 {
	dx := (x - b.cx) / b.rx
	dy := (y - b.cy) / b.ry
	dz := (z - b.cz) / b.rz
	return b.amp * math.Exp(-(dx*dx+dy*dy+dz*dz)/2)
}

// gammaVariate is the standard contrast-bolus curve, normalized so the peak
// value is 1 at time tp after onset t0: g(t) = (τ/tp)^α · exp(α(1 − τ/tp)).
func gammaVariate(t, t0, tp, alpha float64) float64 {
	tau := t - t0
	if tau <= 0 {
		return 0
	}
	r := tau / tp
	return math.Pow(r, alpha) * math.Exp(alpha*(1-r))
}

// Generate builds the phantom study.
func Generate(cfg Config) *volume.Volume {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	X, Y, Z, T := cfg.Dims[0], cfg.Dims[1], cfg.Dims[2], cfg.Dims[3]
	v := volume.NewVolume(cfg.Dims)

	fx, fy, fz := float64(X), float64(Y), float64(Z)
	randBlob := func(minR, maxR, minAmp, maxAmp float64) blob {
		return blob{
			cx:  rng.Float64() * fx,
			cy:  rng.Float64() * fy,
			cz:  rng.Float64() * fz,
			rx:  minR + rng.Float64()*(maxR-minR),
			ry:  minR + rng.Float64()*(maxR-minR),
			rz:  math.Max(1, (minR+rng.Float64()*(maxR-minR))*fz/fx),
			amp: minAmp + rng.Float64()*(maxAmp-minAmp),
		}
	}

	anatomy := make([]blob, cfg.NumBlobs)
	for i := range anatomy {
		anatomy[i] = randBlob(fx/16, fx/4, -0.35*cfg.Baseline, 0.6*cfg.Baseline)
	}
	tumors := make([]blob, cfg.NumTumors)
	tumorT0 := make([]float64, cfg.NumTumors)
	tumorTp := make([]float64, cfg.NumTumors)
	for i := range tumors {
		tumors[i] = randBlob(fx/24, fx/10, 0.9*cfg.Baseline, 1.6*cfg.Baseline)
		tumorT0[i] = 2 + rng.Float64()*2
		tumorTp[i] = 5 + rng.Float64()*4
	}
	vessels := make([]blob, cfg.NumVessels)
	for i := range vessels {
		vessels[i] = randBlob(fx/48, fx/20, 1.2*cfg.Baseline, 2.2*cfg.Baseline)
	}

	// Spatial fields are computed once per 3D position; the time dimension
	// only modulates the enhancing compartments.
	nxyz := X * Y * Z
	base := make([]float64, nxyz)
	tumorW := make([]float64, nxyz)
	vesselW := make([]float64, nxyz)
	tumorIdx := make([]int, nxyz) // dominant tumor per voxel, for its curve
	i := 0
	for z := 0; z < Z; z++ {
		for y := 0; y < Y; y++ {
			for x := 0; x < X; x++ {
				px, py, pz := float64(x), float64(y), float64(z)
				b := cfg.Baseline
				for _, bl := range anatomy {
					b += bl.at(px, py, pz)
				}
				base[i] = math.Max(40, b)
				best, bestW := 0, 0.0
				for k, bl := range tumors {
					w := bl.at(px, py, pz)
					tumorW[i] += w
					if w > bestW {
						best, bestW = k, w
					}
				}
				tumorIdx[i] = best
				for _, bl := range vessels {
					vesselW[i] += bl.at(px, py, pz)
				}
				i++
			}
		}
	}

	// Per-time-step compartment curves. Normal tissue enhances weakly and
	// slowly; vessels enhance immediately and wash out fast.
	for t := 0; t < T; t++ {
		ft := float64(t)
		tissue := 0.12 * gammaVariate(ft, 2, 14, 1.2)
		vessel := gammaVariate(ft, 1.0, 2.5, 2.5)
		tumorCurves := make([]float64, cfg.NumTumors)
		for k := range tumorCurves {
			tumorCurves[k] = gammaVariate(ft, tumorT0[k], tumorTp[k], 2.0)
		}
		out := v.Data[t*nxyz : (t+1)*nxyz]
		for j := 0; j < nxyz; j++ {
			val := base[j]*(1+tissue) + tumorW[j]*tumorCurves[tumorIdx[j]] + vesselW[j]*vessel
			val += rng.NormFloat64() * cfg.NoiseSigma
			if val < 0 {
				val = 0
			}
			if val > 65535 {
				val = 65535
			}
			out[j] = uint16(val)
		}
	}
	return v
}

// GenerateGrid is a convenience for tests and examples: generate a phantom
// and requantize it to g gray levels in one step.
func GenerateGrid(cfg Config, g int) *volume.Grid {
	return volume.Requantize(Generate(cfg), g)
}
