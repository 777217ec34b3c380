// Package experiments regenerates every figure of the paper's evaluation
// (Figures 7a, 7b, 8, 9, 10, 11), its two quantified in-text claims (sparse
// matrix density, zero-skip speedup) and the IIC-scaling observation, plus
// ablations of the design choices called out in DESIGN.md.
//
// Absolute times are not expected to match the 2004 testbeds; each
// experiment reproduces the *shape* of the paper's result — which variant
// wins, by roughly what factor, and where the crossovers fall. The
// simulated-cluster engine supplies the testbed (relative node speeds,
// FastEthernet/Gigabit links, shared uplinks); the computation itself is
// real.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filters"
	"haralick4d/internal/glcm"
	"haralick4d/internal/metrics"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// Scale bundles the dataset and analysis geometry of an experiment run.
type Scale struct {
	Name         string
	Dims         [4]int
	ROI          [4]int
	GrayLevels   int
	ChunkShape   [4]int // IIC-to-TEXTURE chunk
	StorageNodes int
	Seed         int64
}

// chunkBytes is the payload size of one of the scale's full texture chunks
// (a filters.ChunkMsg of ChunkShape voxels, halo included), the unit the
// simulated queues are budgeted in.
func (s Scale) chunkBytes() int {
	n := 1
	for _, c := range s.ChunkShape {
		n *= c
	}
	return (&filters.ChunkMsg{Region: &volume.Region{Data: make([]uint8, n)}}).SizeBytes()
}

// TinyScale is sized for unit tests and testing.B benchmarks: a full
// experiment completes in well under a second of host time.
func TinyScale() Scale {
	return Scale{
		Name:         "tiny",
		Dims:         [4]int{32, 32, 6, 6},
		ROI:          [4]int{6, 6, 2, 2},
		GrayLevels:   32,
		ChunkShape:   [4]int{12, 12, 4, 4},
		StorageNodes: 4,
		Seed:         1,
	}
}

// SmallScale is the default for cmd/experiments: every figure regenerates
// in minutes on one host while preserving the paper's compute/communication
// ratios.
func SmallScale() Scale {
	return Scale{
		Name:         "small",
		Dims:         [4]int{48, 48, 8, 8},
		ROI:          [4]int{8, 8, 3, 3},
		GrayLevels:   32,
		ChunkShape:   [4]int{16, 16, 5, 5},
		StorageNodes: 4,
		Seed:         1,
	}
}

// PaperScale matches the paper's dataset (§5.1) with the documented
// substitutions for transcription-lost values. A full figure sweep at this
// scale takes hours.
func PaperScale() Scale {
	return Scale{
		Name:         "paper",
		Dims:         [4]int{256, 256, 32, 32},
		ROI:          [4]int{16, 16, 3, 3},
		GrayLevels:   32,
		ChunkShape:   [4]int{48, 48, 8, 8},
		StorageNodes: 4,
		Seed:         1,
	}
}

// ScaleByName returns the named scale.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "small":
		return SmallScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// DefaultComputeScale calibrates virtual compute time: virtual seconds on a
// speed-1.0 (PIII-900) node per wall second on the host. The texture kernels
// are integer, cache-resident loops whose per-pair cycle counts changed
// little since the PIII, so the honest calibration is close to the clock
// ratio (~2.1 GHz / 0.9 GHz); measured dense-accumulation throughput on this
// class of host confirms ~2–3x. The value shifts absolute virtual times;
// the compute-to-communication ratio it sets is what lets the figures
// reproduce the paper's crossovers.
const DefaultComputeScale = 2.5

// Env is a prepared experiment environment: a phantom study written as a
// disk-resident dataset plus the simulation calibration.
type Env struct {
	Scale        Scale
	Store        *dataset.Store
	ComputeScale float64
	// QueueBytes is each filter copy's input-queue budget in payload bytes
	// on the simulated cluster (filter.Options.QueueBytes; buffers on the
	// wire count against it). Setup sizes it to 16 of the scale's texture
	// chunks.
	QueueBytes int
	// Ctx cancels the figures' engine runs: cmd/experiments wires it to
	// SIGTERM/^C so an unattended sweep killed by an orchestrator unwinds
	// through the filter runtime instead of dying mid-write. Nil means
	// context.Background() (uncancellable).
	Ctx context.Context
	// Repeats is how many times each simulated configuration runs; the run
	// with the smallest virtual elapsed time is reported, suppressing host
	// jitter (GC pauses, scheduling noise) that the emulation would
	// otherwise charge as compute. Default 3.
	Repeats int
	// ReadAhead is the depth of the reader filters' read-ahead stage (see
	// filters.RFRConfig.ReadAhead). 0 keeps the synchronous reads; outputs
	// are bit-identical at every depth, so only I/O timing changes.
	ReadAhead int
	// KernelWorkers pins the intra-chunk worker count of the texture
	// kernel. The paper's figures measure scaling across filter copies, so
	// the default is 1 (the sequential reference kernel) — leaving each
	// figure's shape exactly as the paper's single-threaded filters produce
	// it. The `kernel` figure sweeps this knob explicitly.
	KernelWorkers int
	// MemoPath is the cross-run result journal of the autotune sweep
	// (memoFile): repeated invocations reuse measured cells
	// instead of recomputing them. Setup defaults it to a file next to the
	// dataset; empty disables memoization.
	MemoPath string
	// StallTimeout arms the filter runtime's no-progress watchdog on the
	// figures' engine runs, so an unattended sweep fails with a diagnostic
	// instead of hanging: virtual time on the simulated cluster, wall time
	// on the local-engine ablations. 0 disables.
	StallTimeout time.Duration
	// LastReport is the observability report of the most recent engine run
	// an experiment performed (the best repetition of the last simulated
	// configuration). cmd/experiments surfaces it behind -metrics.
	LastReport *metrics.RunReport
}

// ctx is Env.Ctx with the nil default resolved, so every engine-run site
// cancels consistently without each one re-spelling the fallback.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// Setup generates the phantom study for the scale and writes it, declustered
// across the scale's storage nodes, under dir (created if needed).
//
// Generation is memoized: a marker journal next to the dataset records the
// fingerprint of the generation inputs (dims, seed, storage nodes), and a
// repeated Setup with the same inputs reopens the dataset already on disk
// instead of regenerating and rewriting it — at the paper scale the write
// alone dominates a sweep's startup. A fingerprint mismatch (the directory
// holds a different scale's dataset) regenerates and replaces the marker.
func Setup(scale Scale, dir string) (*Env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	genPath := filepath.Join(dir, "gen.memo.json")
	genKey := memoKey(fingerprintBytes([]byte(fmt.Sprintf(
		"gendata dims=%v seed=%d nodes=%d", scale.Dims, scale.Seed, scale.StorageNodes))), "gendata")
	genMemo, err := openMemo(genPath)
	if err != nil {
		return nil, err
	}
	if _, ok := genMemo.get(genKey); !ok {
		// The directory holds exactly one dataset, so a stale marker for a
		// different configuration must not survive the rewrite.
		if err := os.Remove(genPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		genMemo, err = openMemo(genPath)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		v := synthetic.Generate(synthetic.Config{Dims: scale.Dims, Seed: scale.Seed})
		if _, err := dataset.Write(dir, v, scale.StorageNodes); err != nil {
			return nil, err
		}
		if err := genMemo.put(genKey, memoCell{ElapsedNS: time.Since(start).Nanoseconds()}); err != nil {
			return nil, err
		}
	}
	st, err := dataset.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale:         scale,
		Store:         st,
		ComputeScale:  DefaultComputeScale,
		QueueBytes:    16 * scale.chunkBytes(),
		Repeats:       3,
		KernelWorkers: 1,
		MemoPath:      filepath.Join(dir, "autotune-memo.json"),
	}, nil
}

// analysis returns the core analysis config for a representation. The
// performance experiments probe one direction per dimension (the four axis
// directions at distance 1): the paper's formulation computes one
// co-occurrence matrix for "a specific distance ... and a specific
// direction", and its reported runtimes are only consistent with a small
// direction set. The full 40-direction 4D set remains the library default
// and is swept by the `dirs` ablation.
func (e *Env) analysis(rep core.Representation) core.Config {
	workers := e.KernelWorkers
	if workers == 0 {
		workers = 1 // zero-value Env: keep the paper-faithful sequential kernel
	}
	return core.Config{
		ROI:            e.Scale.ROI,
		GrayLevels:     e.Scale.GrayLevels,
		NDim:           4,
		Distance:       1,
		Directions:     glcm.AxisDirections(4, 1),
		Representation: rep,
		Workers:        workers,
	}
}
