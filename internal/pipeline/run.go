package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"time"

	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/resilience"
	"haralick4d/internal/runspec"
)

// The one run body of the library façade, the analysis CLI and the daemon:
// WithDeadline, OpenDataset (or the façade's in-memory open), Prepare, Run.

// WithDeadline bounds ctx by the spec's wall-clock budget, or only makes it
// cancelable when the spec has none. Front ends call it before the dataset
// open, so deadline_ms covers the whole run: open, build and engine run.
func WithDeadline(ctx context.Context, s *runspec.Spec) (context.Context, context.CancelFunc) {
	if s.Deadline > 0 {
		return context.WithTimeout(ctx, time.Duration(s.Deadline))
	}
	return context.WithCancel(ctx)
}

// OpenDataset opens the spec's dataset with its block cache and stale reads
// and res, the caller's resilience set for an http(s) backend (nil keeps the
// default retry schedule). ctx bounds the header fetch and is not retained.
func OpenDataset(ctx context.Context, s *runspec.Spec, res *resilience.Set) (*dataset.Store, error) {
	return dataset.OpenURL(ctx, s.Dataset, &dataset.URLOptions{
		CacheBlocks:    s.CacheBlocks,
		CacheBlockSize: s.CacheBlockSize,
		Resilience:     res,
		ServeStale:     s.ServeStale,
	})
}

// Checkpoint names a run's durable progress journal; the zero value runs
// without one.
type Checkpoint struct {
	Path     string        // journal file; "" disables checkpointing
	Resume   bool          // reopen Path, an earlier run's journal, instead of truncating it
	Interval time.Duration // fsync cadence; 0 selects checkpoint.DefaultSyncInterval
}

// Prepared is a run between Prepare and Run: its output directory exists,
// its journal is open and its graph is built. A front end may wrap Graph's
// filter factories before Run (fault injection). Run must be called once.
type Prepared struct {
	Config  *Config
	Graph   *filter.Graph
	Results *filters.Results // the collect sink; nil for the disk outputs
	OutDims [4]int
	Restart *RestartSummary // what the journal held; nil unless resuming

	store *dataset.Store
	stall time.Duration
}

// Prepare readies one run of s over st: the spec's configuration and
// placement (ConfigFor), edited by place when it is not nil, the output
// directory, the checkpoint journal and the graph. On error nothing is open.
func Prepare(st *dataset.Store, s *runspec.Spec, ck Checkpoint, place func(*Config, *Layout) error) (*Prepared, error) {
	cfg, layout, err := ConfigFor(s, st.Meta.Nodes)
	if err != nil {
		return nil, err
	}
	if place != nil {
		if err := place(cfg, layout); err != nil {
			return nil, err
		}
	}
	if cfg.Output != OutputCollect && cfg.OutDir != "" { // Build refuses a disk output without one
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	p := &Prepared{Config: cfg, store: st, stall: time.Duration(s.StallTimeout)}
	if ck.Path != "" {
		if p.Restart, err = prepareCheckpoint(st.Meta.Dims, cfg, ck); err != nil {
			return nil, err
		}
	}
	if p.Graph, p.Results, p.OutDims, err = Build(st, cfg, layout); err != nil {
		p.closeJournal()
		return nil, err
	}
	return p, nil
}

// Run runs the prepared graph on engine under ctx. Failover is on when the
// fault policy skips degraded data, and the stall watchdog takes the spec's
// timeout, or opts.StallTimeout when the spec has none. The journal is
// closed on every path, and a close error fails an otherwise good run: a
// journal that did not reach the disk is no checkpoint. A collect sink must
// be complete; what a SkipDegraded run skipped into it comes back as a
// summary (nil when nothing was). The backend's counters join the report.
func (p *Prepared) Run(ctx context.Context, engine Engine, opts *RunOptions) (*filter.RunStats, *DegradedSummary, error) {
	var ro RunOptions
	if opts != nil {
		ro = *opts
	}
	// SkipDegraded asks for a run that survives faults, so crashed copies
	// fail over to survivors instead of aborting.
	ro.Failover = p.Config.FaultPolicy == fault.SkipDegraded
	ro.StallTimeout = cmp.Or(p.stall, ro.StallTimeout)
	rs, err := RunContext(ctx, p.Graph, engine, &ro)
	if cerr := p.closeJournal(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	var degraded *DegradedSummary
	if p.Results != nil {
		if err := p.Results.Complete(p.Config.Analysis.Features); err != nil {
			return nil, nil, err
		}
		if slices, rois, voxels := p.Results.Degraded(); voxels > 0 {
			degraded = &DegradedSummary{Slices: slices, Chunks: len(rois), ROIs: make([][2][4]int, len(rois)), Voxels: voxels}
			for i, b := range rois {
				degraded.ROIs[i] = [2][4]int{b.Lo, b.Hi}
			}
		}
	}
	attachBackendStats(rs.Report, p.store)
	return rs, degraded, nil
}

// closeJournal closes the run's journal, if it has one: whatever landed is
// what the next life resumes from.
func (p *Prepared) closeJournal() error {
	if p.Config.Journal == nil {
		return nil
	}
	return p.Config.Journal.Close()
}

// DegradedSummary reports what a SkipDegraded run had to drop.
type DegradedSummary struct {
	Slices []int       // global slice ids (t·Z + z) that failed to read, sorted
	Chunks int         // texture chunks poisoned by those slices
	ROIs   [][2][4]int // [Lo, Hi) output boxes left zero, one per degraded chunk in chunk order
	Voxels int         // output voxels left zero per feature
}

// String renders the summary as the one-line report the CLI prints.
func (d *DegradedSummary) String() string {
	return fmt.Sprintf("degraded: skipped %d slices poisoning %d chunks (%d output voxels left zero); lost slice ids %v",
		len(d.Slices), d.Chunks, d.Voxels, d.Slices)
}
