package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/glcm"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/readahead"
	"haralick4d/internal/volume"
)

// timeOp returns the least average time of one call of fn over three loops
// of at least 40 ms each.
func timeOp(fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for loop := 0; loop < 3; loop++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 40*time.Millisecond {
			fn()
			n++
		}
		best = min(best, time.Since(start)/time.Duration(n))
	}
	return best
}

func perSecond(units float64, d time.Duration) float64 { return units / d.Seconds() }

// micro times calls into each module's public functions on inputs shaped
// like the workloads': one real chunk of a paper-local dataset generated from
// the run's seed, and a small dataset behind the 30 ms server. Nothing inside
// the modules is instrumented. The numbers do not depend on the workload
// being run, except volume.*, which plan the workload's own dataset.
type micro struct {
	h   *harness
	out map[string]float64
	err error

	store  *dataset.Store
	region *volume.Region // chunk 0, requantized to 32 levels
	rows   volume.Box     // ROI origins of the first rows of the chunk
	cfg    core.Config
}

// check remembers the first error; later steps still run so one broken layer
// does not hide the others' numbers.
func (m *micro) check(what string, err error) bool {
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("micro %s: %w", what, err)
	}
	return err == nil
}

func (h *harness) runMicro(w *workload, dims [4]int) (map[string]float64, error) {
	prev := runtime.GOMAXPROCS(childProcs)
	defer runtime.GOMAXPROCS(prev)
	m := &micro{h: h, out: map[string]float64{}, cfg: core.DefaultConfig()}
	if h.microShared == nil {
		m.shared()
		if m.err != nil {
			return m.out, m.err
		}
		h.microShared = m.out
		m.out = map[string]float64{}
	}
	m.volume(w, dims)
	for name, v := range h.microShared {
		m.out[name] = v
	}
	return m.out, m.err
}

// shared runs every micro-timing that does not depend on the workload.
func (m *micro) shared() {
	paper := findWorkload("paper-local")
	dims := paper.dims
	if m.h.tiny {
		dims = tinyDims
	}
	local, err := m.h.prepare(paper, dims)
	defer m.h.release(local)
	if !m.check("dataset", err) || !m.check("input", m.load(local.data)) {
		return
	}
	defer m.store.Close()
	m.glcmAndFeatures()
	m.core()
	m.datasetLocal()
	m.datasetHTTP()
	m.readahead()
	m.wireAndEngines()
	m.usoWrite(local.dir)
	m.pipeline(local.dir)
	m.checkpoint(local.dir)
}

// load opens the dataset and cuts the first chunk the pipeline would cut.
func (m *micro) load(dir string) error {
	store, err := dataset.Open(dir)
	if err != nil {
		return err
	}
	m.store = store
	vol, err := store.ReadVolume()
	if err != nil {
		return err
	}
	grid := volume.RequantizeRange(vol, m.cfg.GrayLevels, store.Meta.Min, store.Meta.Max)
	chunker, err := m.chunker(store.Meta.Dims, m.cfg.ROI)
	if err != nil {
		return err
	}
	chunk := chunker.Chunk(0)
	m.region = volume.ExtractRegion(grid, chunk.Voxels)
	m.rows = chunk.Origins
	m.rows.Hi[1] = min(m.rows.Hi[1], m.rows.Lo[1]+16)
	m.rows.Hi[2], m.rows.Hi[3] = m.rows.Lo[2]+1, m.rows.Lo[3]+1
	return nil
}

// chunker plans a dataset the way pipeline.Build does, default chunk shape
// included.
func (m *micro) chunker(dims, roi [4]int) (*volume.Chunker, error) {
	cfg := pipeline.Config{Analysis: core.Config{ROI: roi}}
	if err := cfg.Validate(dims); err != nil {
		return nil, err
	}
	return volume.NewChunker(dims, cfg.ChunkShape, roi)
}

// glcmAndFeatures scans raster rows with the blocked kernel exactly as
// core's row scanner does (one Accumulate per row, one Slide per further
// origin, a snapshot at every origin), then times the feature math on the
// matrices of the first row.
func (m *micro) glcmAndFeatures() {
	g, roi := m.cfg.GrayLevels, m.cfg.ROI
	dirs := m.cfg.DirectionSet()
	strides := volume.Strides(m.region.Box.Shape())
	k := glcm.NewBlocked(g)
	if !k.Plan(strides, roi, dirs, 1, 0) {
		m.check("glcm", fmt.Errorf("blocked kernel rejects the paper geometry"))
		return
	}
	shape := m.rows.Shape()
	nx, ny := shape[0], shape[1]
	scan := func(snapshot func(x, y int)) {
		for y := 0; y < ny; y++ {
			base := y * strides[1]
			k.Reset()
			k.Accumulate(m.region.Data, base)
			snapshot(0, y)
			for x := 0; x+1 < nx; x++ {
				k.Slide(m.region.Data, base+x)
				snapshot(x+1, y)
			}
		}
	}
	pairs := float64(glcm.PairCount(roi, dirs)) * float64(nx*ny)

	full := glcm.NewFull(g)
	m.out["glcm.blocked_pairs_per_s"] = perSecond(pairs, timeOp(func() {
		scan(func(int, int) { k.SnapshotFull(full) })
	}))
	sparse := glcm.NewSparse(g)
	nonzero := 0
	m.out["glcm.sparse_pairs_per_s"] = perSecond(pairs, timeOp(func() {
		nonzero = 0
		scan(func(int, int) { k.SnapshotSparse(sparse); nonzero += sparse.NonZero() })
	}))
	m.out["glcm.nonzero_per_matrix"] = float64(nonzero) / float64(nx*ny)

	// The matrices of the first row, kept, for the feature math.
	var fulls []*glcm.Full
	var sparses []*glcm.Sparse
	scan(func(_, y int) {
		if y > 0 {
			return
		}
		k.SnapshotFull(full)
		fulls = append(fulls, &glcm.Full{G: g, Counts: append([]uint32(nil), full.Counts...), Total: full.Total})
		sparses = append(sparses, fulls[len(fulls)-1].Sparse())
	})
	calc := features.NewCalculator(g, m.cfg.Features)
	perMatrix := func(fn func(i int) error) float64 {
		var err error
		d := timeOp(func() {
			for i := range fulls {
				if e := fn(i); e != nil {
					err = e
				}
			}
		})
		m.check("features", err)
		return float64(d.Nanoseconds()) / float64(len(fulls))
	}
	m.out["features.ns_per_matrix_full"] = perMatrix(func(i int) error {
		_, err := calc.FromFull(fulls[i], true)
		return err
	})
	m.out["features.ns_per_matrix_sparse"] = perMatrix(func(i int) error {
		_, err := calc.FromSparse(sparses[i])
		return err
	})
}

// core times the whole per-chunk computation: two workers on two processors,
// the same on one (the parallel efficiency of row striping), and the
// sequential oracle on a smaller box.
func (m *micro) core() {
	analyze := func(origins volume.Box, workers int) float64 {
		cfg := m.cfg
		cfg.Workers = workers
		var err error
		d := timeOp(func() {
			if _, e := core.AnalyzeRegion(m.region, origins, &cfg, nil); e != nil {
				err = e
			}
		})
		m.check("core", err)
		return perSecond(float64(origins.NumVoxels()), d)
	}
	w2 := analyze(m.rows, 2)
	runtime.GOMAXPROCS(1)
	w2on1 := analyze(m.rows, 2)
	runtime.GOMAXPROCS(childProcs)
	oracle := m.rows
	oracle.Hi[1] = min(oracle.Hi[1], oracle.Lo[1]+2)
	m.out["core.roi_per_s_w2"] = w2
	m.out["core.oracle_roi_per_s"] = analyze(oracle, 1)
	m.out["core.scale_eff"] = w2 / (2 * w2on1)
}

// slices lists every slice of a store as (node, ref) pairs.
func slices(store *dataset.Store) (nodes []int, refs []dataset.SliceRef, err error) {
	for node := 0; node < store.Meta.Nodes; node++ {
		idx, err := store.NodeIndex(node)
		if err != nil {
			return nil, nil, err
		}
		for _, ref := range idx {
			nodes = append(nodes, node)
			refs = append(refs, ref)
		}
	}
	return nodes, refs, nil
}

func (m *micro) datasetLocal() {
	nodes, refs, err := slices(m.store)
	if !m.check("dataset index", err) {
		return
	}
	dims := m.store.Meta.Dims
	buf := make([]uint16, dims[0]*dims[1])
	d := timeOp(func() {
		for i, ref := range refs {
			if e := m.store.ReadSliceInto(nodes[i], ref, buf); e != nil {
				err = e
			}
		}
	})
	m.check("dataset local read", err)
	m.out["dataset.local_read_mb_per_s"] = perSecond(float64(2*len(buf)*len(refs))/1e6, d)
}

// datasetHTTP reads eight slices one after another (no read-ahead) from a
// dataserve that delays every response by 30 ms, and counts the requests the
// backend needed per slice.
func (m *micro) datasetHTTP() {
	remote, err := m.h.prepare(findWorkload("remote-latency"), tinyDims)
	defer m.h.release(remote)
	if !m.check("dataserve", err) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	store, err := dataset.OpenURL(ctx, remote.url, nil)
	if !m.check("dataset open url", err) {
		return
	}
	defer store.Close()
	nodes, refs, err := slices(store)
	if !m.check("dataset http index", err) {
		return
	}
	const n = 8
	before := store.Stats()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, e := store.ReadSliceContext(ctx, nodes[i], refs[i]); e != nil {
			err = e
		}
	}
	d := time.Since(start)
	after := store.Stats()
	m.check("dataset http read", err)
	m.out["dataset.http_read_ms_per_slice"] = d.Seconds() * 1e3 / n
	m.out["dataset.http_requests_per_slice"] = float64(after.Opens+after.Reads-before.Opens-before.Reads) / n
}

// readahead fetches 32 items of a fixed 5 ms each at depth 0 and at depth 4;
// the ideal ratio is 4.
func (m *micro) readahead() {
	fetchAll := func(depth int) time.Duration {
		r := readahead.New(func(int) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return 0, nil
		}, 32, depth)
		defer r.Close()
		start := time.Now()
		for {
			if _, _, ok := r.Next(); !ok {
				return time.Since(start)
			}
		}
	}
	m.out["readahead.overlap_ratio"] = fetchAll(0).Seconds() / fetchAll(4).Seconds()
}

// volume plans the chunks of the workload's own dataset.
func (m *micro) volume(w *workload, dims [4]int) {
	var chunker *volume.Chunker
	var err error
	d := timeOp(func() {
		chunker, err = m.chunker(dims, w.roi)
		if err == nil {
			chunker.SliceChunks(0, 0)
		}
	})
	if !m.check("volume", err) {
		return
	}
	voxels := 0
	for _, c := range chunker.Chunks() {
		voxels += c.Voxels.NumVoxels()
	}
	m.out["volume.chunk_plan_us"] = float64(d.Nanoseconds()) / 1e3
	m.out["volume.read_amplification"] = float64(voxels) / float64(volume.NumVoxels(dims))
}

// smallMsg is the payload of the local pass-through graph.
type smallMsg struct{}

func (smallMsg) SizeBytes() int { return 16 }

// passThrough is a three-stage graph, one copy per stage on its own node,
// that sends payload n times from the first stage through the second to the
// third.
func passThrough(payload filter.Payload, n int) *filter.Graph {
	forward := func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				msg, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if err := ctx.Send("out", msg.Payload); err != nil {
					return err
				}
			}
		})
	}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "SRC", Copies: 1, Nodes: []int{0}, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.Send("out", payload); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "MID", Copies: 1, Nodes: []int{1}, New: forward})
	g.AddFilter(filter.FilterSpec{Name: "SINK", Copies: 1, Nodes: []int{2}, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "SRC", FromPort: "out", To: "MID", ToPort: "in", Policy: filter.DemandDriven})
	g.Connect(filter.ConnSpec{From: "MID", FromPort: "out", To: "SINK", ToPort: "in", Policy: filter.DemandDriven})
	return g
}

// wireAndEngines encodes a real sparse matrix batch (what HCC sends HPC in
// split-tcp) and pushes buffers through both engines. The binary decoders
// have no public entry point, so decoding is measured as part of the TCP
// graph, which encodes and decodes every batch twice.
func (m *micro) wireAndEngines() {
	origins := m.rows
	origins.Hi[1] = min(origins.Hi[1], origins.Lo[1]+4)
	cfg := m.cfg
	cfg.Representation = core.SparseMatrix
	cfg.Workers = 2
	batch, err := core.SparseBatch(m.region, origins, &cfg, nil)
	if !m.check("sparse batch", err) {
		return
	}
	msg := &filters.MatrixBatchMsg{Origins: origins, G: cfg.GrayLevels, Sparse: batch}
	var buf []byte
	d := timeOp(func() { buf = msg.AppendWire(buf[:0]) })
	mb := float64(len(buf)) / 1e6
	m.out["filters.wire_encode_mb_per_s"] = perSecond(mb, d)
	m.out["filters.wire_bytes_per_roi"] = float64(len(buf)) / float64(len(batch))

	const batches = 16
	d = timeOp(func() {
		_, e := filter.RunTCP(passThrough(msg, batches), &filter.Options{WireCodec: filter.CodecBinary})
		if e != nil {
			err = e
		}
	})
	m.check("tcp engine", err)
	m.out["filter.tcp_mb_per_s"] = perSecond(batches*mb, d)

	const msgs = 20000
	d = timeOp(func() {
		if _, e := filter.RunLocal(passThrough(smallMsg{}, msgs), nil); e != nil {
			err = e
		}
	})
	m.check("local engine", err)
	m.out["filter.local_msgs_per_s"] = perSecond(msgs, d)
}

// usoWrite streams parameter portions of one output plane each into the USO
// sink, which flushes, fsyncs and renames its record files at the end.
func (m *micro) usoWrite(dir string) {
	plane := m.rows
	plane.Hi[1] = plane.Lo[1] + plane.Shape()[0]
	const portions = 48
	feats := m.cfg.Features
	out := filepath.Join(dir, "uso-micro")
	var err error
	d := timeOp(func() {
		if e := os.MkdirAll(out, 0o755); e != nil {
			err = e
			return
		}
		g := filter.NewGraph()
		g.AddFilter(filter.FilterSpec{Name: "SRC", Copies: 1, New: func(int) filter.Filter {
			return filter.Func(func(ctx filter.Context) error {
				for i := 0; i < portions; i++ {
					// The sink recycles every message into the filters' pools.
					pm := &filters.ParamMsg{Feature: feats[i%len(feats)], Box: plane, Values: make([]float64, plane.NumVoxels())}
					if err := ctx.Send("out", pm); err != nil {
						return err
					}
				}
				return nil
			})
		}})
		g.AddFilter(filter.FilterSpec{Name: "USO", Copies: 1, New: filters.NewUSO(filters.USOConfig{Dir: out})})
		g.Connect(filter.ConnSpec{From: "SRC", FromPort: "out", To: "USO", ToPort: "in", Policy: filter.DemandDriven})
		if _, e := filter.RunLocal(g, nil); e != nil {
			err = e
		}
	})
	m.check("uso write", err)
	m.out["filters.uso_write_mb_per_s"] = perSecond(float64(portions*8*plane.NumVoxels())/1e6, d)
}

func (m *micro) pipeline(dir string) {
	var err error
	d := timeOp(func() {
		cfg := pipeline.Config{Analysis: m.cfg, Output: pipeline.OutputUSO, OutDir: filepath.Join(dir, "uso-build"), ReadAhead: 4}
		if _, _, _, e := pipeline.Build(m.store, &cfg, nil); e != nil {
			err = e
		}
	})
	m.check("pipeline build", err)
	m.out["pipeline.build_ms"] = d.Seconds() * 1e3
}

// checkpoint appends 1 KiB records to a journal that never syncs on its own,
// then times an append followed by an explicit fsync.
func (m *micro) checkpoint(dir string) {
	log, err := checkpoint.CreateLog(filepath.Join(dir, "micro.journal"), []byte("bench"), time.Hour)
	if !m.check("checkpoint create", err) {
		return
	}
	record := make([]byte, 1024)
	d := timeOp(func() {
		if e := log.Append(record); e != nil {
			err = e
		}
	})
	m.out["checkpoint.append_us"] = float64(d.Nanoseconds()) / 1e3
	d = timeOp(func() {
		if e := log.Append(record); e != nil {
			err = e
		}
		if e := log.Sync(); e != nil {
			err = e
		}
	})
	m.out["checkpoint.sync_ms"] = d.Seconds() * 1e3
	if e := log.Close(); e != nil && err == nil {
		err = e
	}
	m.check("checkpoint", err)
}
