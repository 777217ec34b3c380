package experiments

import (
	"fmt"
	"os"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/runspec"
	"haralick4d/internal/volume"
)

// sampleGrid loads the phantom, requantizes it with the dataset range, and
// returns it for in-process measurements.
func (e *Env) sampleGrid() (*volume.Grid, error) {
	v, err := e.Store.ReadVolume()
	if err != nil {
		return nil, err
	}
	return volume.RequantizeRange(v, e.Scale.GrayLevels, e.Store.Meta.Min, e.Store.Meta.Max), nil
}

// sampleOrigins returns a centered sub-box of ROI origins holding roughly
// limit origins, so statistics stabilize without a full raster scan.
func (e *Env) sampleOrigins(limit int) (volume.Box, error) {
	outDims, err := volume.OutputDims(e.Scale.Dims, e.Scale.ROI)
	if err != nil {
		return volume.Box{}, err
	}
	var shape, origin [4]int
	per := limit
	for k := 3; k >= 0; k-- {
		shape[k] = outDims[k]
		if shape[k] > 8 {
			shape[k] = 8
		}
		per /= shape[k]
	}
	// Shrink x until under the limit.
	for shape[0] > 1 && shape[0]*shape[1]*shape[2]*shape[3] > limit {
		shape[0]--
	}
	for k := 0; k < 4; k++ {
		origin[k] = (outDims[k] - shape[k]) / 2
	}
	return volume.BoxAt(origin, shape), nil
}

// Density regenerates the paper's §4.4.1 sparsity claim: "matrices
// generated using a typical ROI and requantized 32 levels can have on
// average as little as 10.7 non-zero entries per matrix (about 1% of the
// matrix)", counting symmetric entries once.
func Density(e *Env) (*Figure, error) {
	grid, err := e.sampleGrid()
	if err != nil {
		return nil, err
	}
	origins, err := e.sampleOrigins(600)
	if err != nil {
		return nil, err
	}
	cfg := axisAnalysis(e.Spec, core.SparseMatrix)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
	var st core.Stats
	if _, err := core.AnalyzeRegion(region, origins, &cfg, &st); err != nil {
		return nil, err
	}
	mean := st.MeanEntries()
	cells := float64(e.Scale.GrayLevels * e.Scale.GrayLevels)
	fig := &Figure{
		ID:     "density",
		Title:  "sparse co-occurrence matrix density (§4.4.1)",
		YLabel: "stored entries per matrix",
		Series: []Series{{Label: "mean non-zero stored entries", Y: []float64{mean}}},
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%.1f entries of %d cells = %.2f%% of the matrix (paper: 10.7 entries, about 1%%)", mean, int(cells), 100*mean/cells),
		fmt.Sprintf("measured over %d ROIs of shape %v at G=%d", st.ROIs, e.Scale.ROI, e.Scale.GrayLevels))
	return fig, nil
}

// ZeroSkip regenerates the paper's §4.4.1 optimization claim: testing
// matrix entries for zero before folding them into the parameter sums "
// allowed us to process a typical MRI dataset in one-fourth the time". It
// measures parameter-calculation time per matrix over matrices sampled
// from the phantom, for the three computation paths.
func ZeroSkip(e *Env) (*Figure, error) {
	grid, err := e.sampleGrid()
	if err != nil {
		return nil, err
	}
	origins, err := e.sampleOrigins(256)
	if err != nil {
		return nil, err
	}
	cfg := axisAnalysis(e.Spec, core.FullMatrix)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
	var mats []*glcm.Full
	err = core.ScanRegion(region, origins, &cfg, nil, func(_ [4]int, full *glcm.Full, _ *glcm.Sparse) error {
		mats = append(mats, &glcm.Full{G: full.G, Counts: append([]uint32(nil), full.Counts...), Total: full.Total})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sparse := make([]*glcm.Sparse, len(mats))
	for i, m := range mats {
		sparse[i] = m.Sparse()
	}
	req := features.PaperSet()
	const rounds = 30
	timePath := func(f func() error) (float64, error) {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		perMatrix := time.Since(start).Seconds() / float64(rounds*len(mats))
		return perMatrix * 1e6, nil // µs per matrix
	}
	noskip, err := timePath(func() error {
		for _, m := range mats {
			if _, err := features.FromFull(m, req, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	skip, err := timePath(func() error {
		for _, m := range mats {
			if _, err := features.FromFull(m, req, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp, err := timePath(func() error {
		for _, s := range sparse {
			if _, err := features.FromSparse(s, req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "zeroskip",
		Title:  "zero-skip optimization of full-matrix parameter calculation (§4.4.1)",
		YLabel: "µs per matrix (4 paper parameters)",
		Series: []Series{
			{Label: "full, no zero test", Y: []float64{noskip}},
			{Label: "full, zero-skip", Y: []float64{skip}},
			{Label: "sparse form", Y: []float64{sp}},
		},
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("zero-skip speedup: %.1fx (paper: about 4x end-to-end)", noskip/skip),
		fmt.Sprintf("measured over %d matrices sampled from the phantom", len(mats)))
	return fig, nil
}

// IICScaling regenerates the §5.2 observation: "as the number of IIC
// filters is increased, the processing time of each IIC filter decreases
// almost linearly". Explicit IIC copies are swept with a fixed texture
// configuration.
func IICScaling(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "iic",
		Title:  "explicit IIC filter replication (§5.2)",
		XLabel: "IIC copies",
		YLabel: "max per-copy IIC compute time (virtual s)",
	}
	s := Series{Label: "IIC"}
	spec := e.Spec
	spec.Impl, spec.Representation = runspec.Split, core.SparseMatrix
	for _, copies := range []int{1, 2, 4, 8} {
		report, err := e.runHomogeneous(spec, 8, true, copies)
		if err != nil {
			return nil, fmt.Errorf("iic copies=%d: %w", copies, err)
		}
		s.X = append(s.X, float64(copies))
		s.Y = append(s.Y, seconds(maxBusy(report, "IIC")))
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes, "paper: per-copy IIC processing time decreases almost linearly with copies")
	return fig, nil
}

// Directions is an ablation of the direction-set size (not in the paper,
// which fixes the 4D direction set): sequential scan cost for 1 (single
// axis), 4 (2D), 13 (3D) and 40 (4D) unique directions.
func Directions(e *Env) (*Figure, error) {
	grid, err := e.sampleGrid()
	if err != nil {
		return nil, err
	}
	origins, err := e.sampleOrigins(400)
	if err != nil {
		return nil, err
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
	fig := &Figure{
		ID:     "dirs",
		Title:  "ablation: direction-set size vs scan cost",
		XLabel: "unique directions",
		YLabel: "ms per 100 ROIs (host time)",
	}
	s := Series{Label: "full matrix + paper parameters"}
	for _, nd := range []int{1, 2, 3, 4} {
		cfg := axisAnalysis(e.Spec, core.FullMatrix)
		cfg.NDim = nd
		cfg.Directions = nil // sweep the full canonical set of each NDim
		if nd == 1 {
			cfg.Directions = []glcm.Direction{{1, 0, 0, 0}}
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		start := time.Now()
		var st core.Stats
		if _, err := core.AnalyzeRegion(region, origins, &cfg, &st); err != nil {
			return nil, err
		}
		el := time.Since(start)
		s.X = append(s.X, float64(len(cfg.DirectionSet())))
		s.Y = append(s.Y, el.Seconds()*1000/float64(st.ROIs)*100)
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes, "cost grows with the direction set; 4D (40 directions) is the paper's configuration")
	return fig, nil
}

// ChunkShape is an ablation of the IIC-to-TEXTURE chunk size (the paper
// discusses the tradeoff in §5.1: small chunks duplicate too much overlap,
// huge chunks starve the texture filters).
func ChunkShape(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "chunk",
		Title:  "ablation: IIC-to-TEXTURE chunk size (§5.1 tradeoff)",
		XLabel: "chunk edge (x=y)",
		YLabel: "execution time (virtual s)",
	}
	s := Series{Label: "HMP full, 8 texture nodes"}
	var notes []string
	for _, edge := range chunkEdges(e.Scale) {
		spec := e.Spec
		spec.ChunkShape = runspec.Shape{edge, edge, e.Scale.ChunkShape[2], e.Scale.ChunkShape[3]}
		report, err := e.runHomogeneous(spec, 8, false, 1)
		if err != nil {
			return nil, fmt.Errorf("chunk edge=%d: %w", edge, err)
		}
		s.X = append(s.X, float64(edge))
		s.Y = append(s.Y, seconds(report.Elapsed()))
		in := report.Filter("RFR").BytesOut
		notes = append(notes, fmt.Sprintf("edge %d: %.1f MB read-and-sent by RFR (overlap duplication)", edge, float64(in)/1e6))
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes, "paper: small chunks create too much overlap communication, large chunks distribute poorly")
	fig.Notes = append(fig.Notes, notes...)
	return fig, nil
}

// chunkEdges picks a sweep of square chunk x/y edges valid for the scale.
func chunkEdges(sc Scale) []int {
	roiEdge := sc.ROI[0]
	if sc.ROI[1] > roiEdge {
		roiEdge = sc.ROI[1]
	}
	maxEdge := sc.Dims[0]
	if sc.Dims[1] < maxEdge {
		maxEdge = sc.Dims[1]
	}
	var edges []int
	for e := roiEdge + 1; e <= maxEdge; e *= 2 {
		edges = append(edges, e)
	}
	if len(edges) == 0 || edges[len(edges)-1] != maxEdge {
		edges = append(edges, maxEdge)
	}
	return edges
}

// Kernel sweeps the intra-chunk worker count of the texture kernel (the
// `Workers` knob of core.Config): ROI raster rows are dealt in grains to the
// workers, and each worker's blocked kernel reuses the overlapping-window
// work along x and from row to row (workers > 1 only; workers = 1 is the
// sequential full-recompute oracle). The measurement times
// core.AnalyzeGrid — the call an HMP copy's compute span wraps — over a
// one-chunk sample of the requantized phantom; it runs no engine, so the
// figure leaves no run report.
func Kernel(e *Env) (*Figure, error) {
	grid, err := e.sampleGrid()
	if err != nil {
		return nil, err
	}
	// Window reuse happens along consecutive x origins, so the sample must
	// keep whole raster rows: full x extent, y/z/t clamped (and centered)
	// to bound the ROI count. sampleOrigins would shrink x instead and hide
	// the reuse entirely.
	outDims, err := volume.OutputDims(e.Scale.Dims, e.Scale.ROI)
	if err != nil {
		return nil, err
	}
	shape := outDims
	for k, lim := range [4]int{outDims[0], 8, 2, 2} {
		if shape[k] > lim {
			shape[k] = lim
		}
	}
	for shape[1] > 1 && shape[0]*shape[1]*shape[2]*shape[3] > 1600 {
		shape[1]--
	}
	// Cut the voxel extent those origins cover out of the phantom; its
	// output grid is exactly the sampled origins, and a chunk shaped like
	// the whole sample keeps the window reuse unbroken.
	var origin, voxShape [4]int
	for k := 0; k < 4; k++ {
		origin[k] = (outDims[k] - shape[k]) / 2
		voxShape[k] = shape[k] + e.Scale.ROI[k] - 1
	}
	sample := volume.ExtractRegion(grid, volume.BoxAt(origin, voxShape)).Grid(e.Scale.GrayLevels)
	rois := shape[0] * shape[1] * shape[2] * shape[3]
	fig := &Figure{
		ID:     "kernel",
		Title:  "intra-chunk kernel workers: blocked GLCM kernel against the oracle",
		XLabel: "kernel workers",
		YLabel: "ms per 100 ROIs (host time)",
	}
	repeats := e.Repeats
	if repeats < 1 {
		repeats = 1
	}
	// measure returns the best wall time (seconds) of the kernel scan over
	// the sample across the repeats.
	measure := func(analysis core.Config) (float64, error) {
		var best float64
		for r := 0; r < repeats; r++ {
			if err := e.ctx().Err(); err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := core.AnalyzeGrid(sample, &analysis, nil); err != nil {
				return 0, err
			}
			if el := time.Since(start).Seconds(); r == 0 || el < best {
				best = el
			}
		}
		return best, nil
	}
	// One series: workers=1 is the sequential oracle (full recompute per
	// ROI), workers>1 the blocked kernel's row walk.
	s := Series{Label: "blocked kernel, sparse matrix + paper parameters"}
	var base float64
	for _, w := range []int{1, 2, 4, 8} {
		analysis := axisAnalysis(e.Spec, core.SparseMatrix)
		analysis.Workers = w
		sec, err := measure(analysis)
		if err != nil {
			return nil, fmt.Errorf("kernel workers=%d: %w", w, err)
		}
		s.X = append(s.X, float64(w))
		s.Y = append(s.Y, sec*1000/float64(rois)*100)
		pairs := float64(rois) * float64(glcm.PairCount(e.Scale.ROI, analysis.DirectionSet()))
		if w == 1 {
			base = sec
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"workers=%d: %.2f Mpairs/s over %d ROIs (%.2fx vs workers=1)",
			w, pairs/sec/1e6, rois, base/sec))
	}
	fig.Series = append(fig.Series, s)
	fig.Notes = append(fig.Notes,
		"timings are the best wall time of core.AnalyzeGrid over a one-chunk sample, the call an HMP copy's compute span wraps; no engine runs, so the figure carries no run report",
		"workers=1 is the sequential oracle kernel (full recompute per ROI); workers>1 run the blocked kernel (internal/glcm/blocked.go), which batches all directions into one raster pass and reuses window work along x and from row to row, so single-CPU hosts still gain",
		"outputs are bit-identical at every worker count (property-tested in internal/core)")
	return fig, nil
}

// AllIDs lists every figure id in presentation order.
func AllIDs() []string {
	return []string{
		"7a", "7b", "8", "9", "10", "11",
		"density", "zeroskip", "iic", "dirs", "chunk", "decluster", "kernel",
		"autotune",
	}
}

// All runs every experiment and returns the figures in presentation order.
func All(e *Env) ([]*Figure, error) {
	var figs []*Figure
	for _, id := range AllIDs() {
		f, err := ByID(e, id)
		if err != nil {
			return figs, fmt.Errorf("experiment %s: %w", id, err)
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// ByID runs the single experiment with the given figure id.
func ByID(e *Env, id string) (*Figure, error) {
	m := map[string]func(*Env) (*Figure, error){
		"7a": Fig7a, "7b": Fig7b, "8": Fig8, "9": Fig9, "10": Fig10, "11": Fig11,
		"density": Density, "zeroskip": ZeroSkip, "iic": IICScaling,
		"dirs": Directions, "chunk": ChunkShape, "decluster": Declustering,
		"kernel": Kernel, "autotune": AutoTuneSweep,
	}
	f, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure id %q", id)
	}
	return f(e)
}

// Declustering is an ablation of the storage distribution policy (§4.2
// cites several declustering methods; the paper picks round-robin because
// analysis queries read whole volumes over time ranges). Each policy's
// dataset is written to a sibling directory and run through the HMP
// pipeline on the simulated PIII cluster with four explicit IIC copies —
// with a single IIC, its receive link serializes ingest and hides the
// layout entirely (the same coupling behind the paper's §5.2 IIC
// replication).
func Declustering(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "decluster",
		Title:  "ablation: slice declustering policy (§4.2)",
		YLabel: "execution time (virtual s)",
	}
	v, err := e.Store.ReadVolume()
	if err != nil {
		return nil, err
	}
	for _, dist := range []dataset.Distribution{dataset.RoundRobinDist, dataset.BlockDist, dataset.SliceModDist} {
		dir, err := os.MkdirTemp("", "haralick4d-dist")
		if err != nil {
			return nil, fmt.Errorf("decluster: %w", err)
		}
		defer os.RemoveAll(dir)
		if _, err := dataset.WriteDistributed(dir, v, e.Scale.StorageNodes, dist, dataset.EncodingRaw); err != nil {
			return nil, err
		}
		spec := e.Spec
		spec.Dataset = dir
		report, err := e.runHomogeneous(spec, 8, false, 4)
		if err != nil {
			return nil, fmt.Errorf("decluster %v: %w", dist, err)
		}
		// Read balance: bytes sent per RFR copy.
		var lo, hi int64 = -1, 0
		for _, c := range report.Filter("RFR").Copies {
			if lo < 0 || c.BytesOut < lo {
				lo = c.BytesOut
			}
			if c.BytesOut > hi {
				hi = c.BytesOut
			}
		}
		fig.Series = append(fig.Series, Series{Label: dist.String(), Y: []float64{seconds(report.Elapsed())}})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: per-reader output %d..%d KB", dist, lo/1000, hi/1000))
	}
	fig.Notes = append(fig.Notes,
		"at this scale the layouts tie: reads are a small fraction of compute, and the z/t-symmetric chunk grid equalizes the per-reader byte totals",
		"the layout matters when retrieval dominates (full-size studies) or when ingest is serialized by a single IIC (see the §5.2 replication experiment)")
	return fig, nil
}
