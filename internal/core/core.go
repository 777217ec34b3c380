// Package core implements the 4D Haralick texture analysis algorithm of the
// paper (Fig. 2): a raster scan that visits every region of interest (ROI)
// of a requantized 4D dataset, computes a co-occurrence matrix per ROI in
// the configured representation, and derives the selected Haralick
// parameters from each matrix.
//
// The package is the per-chunk computation kernel executed inside the
// HMP/HCC/HPC filters, with two GLCM paths: the sequential oracle
// (ScanRegion, and every entry point at one worker), which recomputes each
// ROI's matrix with glcm.ComputeFull or glcm.ComputeSparse and is what the
// parallel pipelines are verified against; and the production path
// (parallel.go), which deals ROI raster rows in grains to workers running the
// blocked kernel, glcm.Blocked.
package core

import (
	"errors"
	"fmt"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// Representation selects the co-occurrence matrix storage scheme (paper
// §4.4.1).
type Representation int

const (
	// FullMatrix is the dense G×G array with the zero-skip optimization
	// applied during parameter calculation (the paper's optimized full
	// representation, "one-fourth the time").
	FullMatrix Representation = iota
	// FullMatrixNoSkip is the dense array without the zero test — the
	// unoptimized baseline, kept for the ablation experiment.
	FullMatrixNoSkip
	// SparseMatrix stores only non-zero, non-duplicated entries and computes
	// parameters directly from the sparse form.
	SparseMatrix
)

// String returns a short stable name used in flags and reports.
func (r Representation) String() string {
	switch r {
	case FullMatrix:
		return "full"
	case FullMatrixNoSkip:
		return "full-noskip"
	case SparseMatrix:
		return "sparse"
	}
	return fmt.Sprintf("representation(%d)", int(r))
}

// ParseRepresentation is the inverse of String.
func ParseRepresentation(s string) (Representation, error) {
	switch s {
	case "full":
		return FullMatrix, nil
	case "full-noskip":
		return FullMatrixNoSkip, nil
	case "sparse":
		return SparseMatrix, nil
	}
	return 0, fmt.Errorf("core: unknown representation %q", s)
}

// MarshalText implements encoding.TextMarshaler; an out-of-range
// representation is an error.
func (r Representation) MarshalText() ([]byte, error) {
	if r < FullMatrix || r > SparseMatrix {
		return nil, fmt.Errorf("core: representation %d out of range", int(r))
	}
	return []byte(r.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (ParseRepresentation).
func (r *Representation) UnmarshalText(b []byte) (err error) {
	*r, err = ParseRepresentation(string(b))
	return err
}

// Config holds the texture-analysis parameters shared by the sequential
// reference and all parallel pipelines.
type Config struct {
	// ROI is the region-of-interest window shape (x, y, z, t). Paper default
	// (§5.1, value partly lost in transcription): 16×16×3×3.
	ROI [4]int
	// GrayLevels is G, the requantization level count and co-occurrence
	// matrix size. Paper: 32.
	GrayLevels int
	// NDim selects the direction-set dimensionality (2, 3 or 4); a 4D
	// analysis uses all 40 unique 4D directions.
	NDim int
	// Distance is the displacement magnitude between voxel pairs. Paper
	// uses distance 1.
	Distance int
	// Directions overrides the direction set when non-nil (e.g. a single
	// direction, or axis-only analyses).
	Directions []glcm.Direction
	// Features are the Haralick parameters to compute. Defaults to the
	// paper's four most expensive: ASM, correlation, sum of squares, IDM.
	Features []features.Feature
	// Representation selects the matrix storage scheme.
	Representation Representation
	// Workers bounds the intra-chunk parallelism of AnalyzeRegion and the
	// batch builders: 0 selects GOMAXPROCS, 1 forces the sequential
	// reference kernel (the verification oracle), and larger values deal
	// ROI raster rows to a worker pool whose kernel also reuses
	// overlapping-window work along x and from row to row (glcm.Blocked).
	Workers int
}

// DefaultConfig returns the paper's experimental configuration (§5.1) with
// the documented substitutions for transcription-lost values.
func DefaultConfig() Config {
	return Config{
		ROI:            [4]int{16, 16, 3, 3},
		GrayLevels:     32,
		NDim:           4,
		Distance:       1,
		Features:       features.PaperSet(),
		Representation: FullMatrix,
	}
}

// Validate checks the configuration and fills zero-valued fields with
// defaults. It returns an error describing the first problem found.
func (c *Config) Validate() error {
	def := DefaultConfig()
	if c.ROI == ([4]int{}) {
		c.ROI = def.ROI
	}
	for k, d := range c.ROI {
		if d < 1 {
			return fmt.Errorf("core: ROI dimension %d is %d, must be >= 1", k, d)
		}
	}
	if c.GrayLevels == 0 {
		c.GrayLevels = def.GrayLevels
	}
	if c.GrayLevels < 2 || c.GrayLevels > 256 {
		return fmt.Errorf("core: gray levels %d out of range [2, 256]", c.GrayLevels)
	}
	if c.NDim == 0 {
		c.NDim = def.NDim
	}
	if c.NDim < 1 || c.NDim > 4 {
		return fmt.Errorf("core: NDim %d out of range [1, 4]", c.NDim)
	}
	if c.Distance == 0 {
		c.Distance = def.Distance
	}
	if c.Distance < 1 {
		return fmt.Errorf("core: distance %d must be >= 1", c.Distance)
	}
	if len(c.Features) == 0 {
		c.Features = def.Features
	}
	for _, f := range c.Features {
		if f < 0 || int(f) >= features.NumFeatures {
			return fmt.Errorf("core: invalid feature %d", int(f))
		}
	}
	if c.Representation < FullMatrix || c.Representation > SparseMatrix {
		return fmt.Errorf("core: invalid representation %d", int(c.Representation))
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d must be >= 0 (0 selects GOMAXPROCS)", c.Workers)
	}
	if glcm.PairCount(c.ROI, c.DirectionSet()) == 0 {
		return fmt.Errorf("core: ROI %v admits no voxel pairs at distance %d with %d direction(s) — every direction's displacement exceeds the ROI extent, so all matrices would be empty", c.ROI, c.Distance, len(c.DirectionSet()))
	}
	return nil
}

// CheckRegion verifies that a region (or chunk) of the given shape can host
// at least one ROI of the configured size. It exists so that callers which
// know their data shape up front (the pipeline validator, the library entry
// points) can reject an oversized ROI with a clear error instead of letting
// the scan produce an empty output.
func (c *Config) CheckRegion(shape [4]int) error {
	for k := range shape {
		if c.ROI[k] > shape[k] {
			return fmt.Errorf("core: ROI %v exceeds region shape %v along dimension %d", c.ROI, shape, k)
		}
	}
	return nil
}

// DirectionSet returns the effective direction set.
func (c *Config) DirectionSet() []glcm.Direction {
	if len(c.Directions) > 0 {
		return c.Directions
	}
	return glcm.Directions(c.NDim, c.Distance)
}

// Stats accumulates work counters during a scan; useful for the cost model
// and the sparsity experiment.
type Stats struct {
	ROIs          int64  // co-occurrence matrices computed
	Pairs         uint64 // voxel pairs accumulated
	StoredEntries int64  // sparse entries — for a full matrix its non-zero cells, a mirror pair counted once — summed
}

// MeanEntries returns the average number of stored (non-zero, non-duplicate)
// matrix entries per ROI — the paper's "10.7 non-zero entries per matrix"
// statistic.
func (s *Stats) MeanEntries() float64 {
	if s.ROIs == 0 {
		return 0
	}
	return float64(s.StoredEntries) / float64(s.ROIs)
}

// ErrNilRegion is returned when a scan is invoked with no data.
var ErrNilRegion = errors.New("core: nil region")

// ROIVisitor receives each ROI's co-occurrence matrix during a scan. Exactly
// one of full/sparse is non-nil depending on the configured representation;
// the matrix is reused across calls and must not be retained.
type ROIVisitor func(origin [4]int, full *glcm.Full, sparse *glcm.Sparse) error

// ScanRegion rasters the ROI origins of the box origins over the region
// (paper Fig. 1/2), computing one co-occurrence matrix per origin in the
// configured representation and passing it to visit. Every ROI must lie
// entirely within the region (the chunker guarantees this for chunks).
// stats may be nil. Every matrix is recomputed from scratch with
// glcm.ComputeFull or glcm.ComputeSparse: this is the verification oracle.
func ScanRegion(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, visit ROIVisitor) error {
	if region == nil {
		return ErrNilRegion
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	sc := newRowScanner(region, origins, cfg, cfg.Representation, false)
	shape := origins.Shape()
	return sc.scan(0, shape[1]*shape[2]*shape[3], stats, visit)
}

// checkOrigins verifies that every ROI rooted in origins lies inside the
// region.
func checkOrigins(region *volume.Region, origins volume.Box, cfg *Config) error {
	roiBoxAll := volume.BoxAt(origins.Lo, [4]int{
		origins.Hi[0] - origins.Lo[0] + cfg.ROI[0] - 1,
		origins.Hi[1] - origins.Lo[1] + cfg.ROI[1] - 1,
		origins.Hi[2] - origins.Lo[2] + cfg.ROI[2] - 1,
		origins.Hi[3] - origins.Lo[3] + cfg.ROI[3] - 1,
	})
	if !region.Box.ContainsBox(roiBoxAll) {
		return fmt.Errorf("core: origins %v with ROI %v exceed region %v", origins, cfg.ROI, region.Box)
	}
	return nil
}

// AnalyzeRegion runs the complete per-chunk computation (co-occurrence
// matrices plus Haralick parameters — what the HMP filter does) over the
// given origins and returns one FloatRegion per requested feature, in the
// order of cfg.Features. With cfg.Workers resolving above one, the ROI
// raster rows are dealt to a worker pool (see AnalyzeRegionInto);
// the result is bit-identical to the sequential reference either way.
func AnalyzeRegion(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats) ([]*volume.FloatRegion, error) {
	out := make([]*volume.FloatRegion, len(cfg.Features))
	for i := range out {
		out[i] = volume.NewFloatRegion(origins)
	}
	if err := AnalyzeRegionInto(region, origins, cfg, stats, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyzeGrid is the sequential end-to-end reference: it scans the whole
// grid and returns one full-size FloatGrid per requested feature, in the
// order of cfg.Features. The grid's gray levels must match the config.
func AnalyzeGrid(g *volume.Grid, cfg *Config, stats *Stats) ([]*volume.FloatGrid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.G != cfg.GrayLevels {
		return nil, fmt.Errorf("core: grid has %d gray levels, config %d", g.G, cfg.GrayLevels)
	}
	outDims, err := volume.OutputDims(g.Dims, cfg.ROI)
	if err != nil {
		return nil, err
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, g.Dims), Data: g.Data}
	origins := volume.BoxAt([4]int{}, outDims)
	fr, err := AnalyzeRegion(region, origins, cfg, stats)
	if err != nil {
		return nil, err
	}
	grids := make([]*volume.FloatGrid, len(fr))
	for i, r := range fr {
		grids[i] = &volume.FloatGrid{Dims: outDims, Data: r.Data}
	}
	return grids, nil
}
