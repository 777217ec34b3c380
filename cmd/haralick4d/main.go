// Command haralick4d runs the parallel 4D Haralick texture analysis
// pipeline over a disk-resident dataset, with the paper's configuration
// surface exposed as flags: the implementation (combined HMP vs split
// HCC+HPC), the co-occurrence matrix representation (full, full without the
// zero-skip optimization, sparse), the buffer scheduling policy
// (round-robin vs demand-driven), copy counts, chunk geometry and the
// execution engine (local goroutines, loopback TCP between virtual nodes,
// or the simulated cluster).
//
// The flags that describe the run are the run spec's (internal/runspec),
// the same fields and defaults as the daemon's job specs and the library's
// Options; the rest select how an engine executes it.
//
// Examples:
//
//	haralick4d -data /data/study1 -out /tmp/maps -format jpeg
//	haralick4d -data /data/study1 -impl split -rep sparse -texture 8 -engine tcp -out /tmp/uso
//	haralick4d -data /data/study1 -engine sim -impl split -format none -metrics
//
// The serve subcommand runs the multi-job analysis daemon instead of a
// single analysis (see internal/server):
//
//	haralick4d serve -serve-addr localhost:7474 -state-dir /var/lib/haralick4d
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"haralick4d/internal/cliflags"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/netdesc"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
	"haralick4d/internal/runspec"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "haralick4d: "+format+"\n", args...)
	os.Exit(1)
}

// cli is one parsed command line: the run spec plus the options only an
// engine run has.
type cli struct {
	spec runspec.Spec

	data, graph string
	engine      pipeline.Engine
	resilience  *resilience.Policy
	iic         int
	checkpoint  pipeline.Checkpoint
	crashAfter  int
	metrics     bool
	metricsJSON string
	pprof       string
}

// parseArgs parses and checks a command line. Every error it returns is a
// usage error, already printed to out with the usage text: main exits 2.
func parseArgs(args []string, out io.Writer) (*cli, error) {
	fs := flag.NewFlagSet("haralick4d", flag.ContinueOnError)
	fs.SetOutput(out)
	c := &cli{}
	c.spec.Bind(fs)
	fs.StringVar(&c.data, "data", "", "dataset directory (see cmd/gendata); required unless -dataset-url is given")
	fs.StringVar(&c.graph, "graph", "", "XML pipeline description (overrides the analysis/layout flags)")
	fs.Func("engine", "execution engine: local (default), tcp, sim", func(s string) (err error) {
		c.engine, err = pipeline.ParseEngine(s)
		return err
	})
	retryS := fs.String("retry", "", "retry schedule \"attempts[,base[,max]]\" for backend calls and TCP links, e.g. \"5,10ms,1s\" (empty = 3 backend attempts, single-shot TCP sends)")
	brkS := fs.String("breaker", "", "circuit breaker \"consec[,open-for[,window,error-rate]]\" for backend calls and TCP links, e.g. \"5,2s\" (empty = off)")
	budgetS := fs.String("retry-budget", "", "shared retry budget \"tokens[,ratio]\" capping total retries against a sick dependency, e.g. \"10,0.1\" (empty = unbounded)")
	hedgeS := fs.String("hedge-after", "", "launch a second backend range read if the first has not answered within this duration, e.g. 200ms (empty = off)")
	fs.IntVar(&c.iic, "iic", 1, "explicit IIC copies")
	fs.StringVar(&c.checkpoint.Path, "checkpoint", "", "durable progress journal path; makes the run resumable after a crash (formats uso/none)")
	ckptIntS := fs.String("checkpoint-interval", "", "journal fsync cadence, e.g. 500ms (default 1s; requires -checkpoint)")
	fs.BoolVar(&c.checkpoint.Resume, "resume", false, "resume from the -checkpoint journal of an interrupted run of the same configuration")
	fs.IntVar(&c.crashAfter, "crash-after", 0, "TESTING: crash texture copy 0 after receiving this many buffers (0 = never)")
	fs.BoolVar(&c.metrics, "metrics", false, "print the structured run report (per-filter spans, streams, critical path)")
	fs.StringVar(&c.metricsJSON, "metrics-json", "", "write the run report as JSON to this file (\"-\" for stdout)")
	fs.StringVar(&c.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	err := c.check(*retryS, *brkS, *budgetS, *hedgeS, *ckptIntS)
	if err != nil {
		fmt.Fprintf(out, "haralick4d: %v\n", err)
		fs.Usage()
		return nil, err
	}
	return c, nil
}

// check validates a parsed command line: the spec with its one Validate,
// then the engine-run options.
func (c *cli) check(retryS, brkS, budgetS, hedgeS, ckptIntS string) (err error) {
	if c.spec.Dataset == "" {
		c.spec.Dataset = c.data
	}
	if c.spec.Dataset == "" {
		return errors.New("-data or -dataset-url is required")
	}
	if err := c.spec.Validate(); err != nil {
		return err
	}
	if err := validateCountFlags(c.iic); err != nil {
		return err
	}
	if c.checkpoint.Interval, err = cliflags.ParseRestartFlags(c.checkpoint.Path, c.checkpoint.Resume, ckptIntS); err != nil {
		return err
	}
	c.resilience, err = cliflags.ParseResilienceFlags(retryS, brkS, budgetS, hedgeS)
	return err
}

// validateCountFlags rejects the engine-run counts the flag package happily
// parses but no run can use.
func validateCountFlags(iic int) error {
	if iic < 1 {
		return fmt.Errorf("-iic must be >= 1, got %d", iic)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := c.run(); err != nil {
		fail("%v", err)
	}
}

// run opens the dataset, prepares the run the command line describes and
// runs it on the selected engine.
func (c *cli) run() error {
	// SIGTERM is what containers and orchestrators send first: treat it
	// like ^C so the run cancels cleanly and the checkpoint journal is
	// flushed instead of dying mid-frame. The -deadline budget rides the
	// same context from the dataset open on, so an overrunning run cancels
	// exactly like an interrupted one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := pipeline.WithDeadline(ctx, &c.spec)
	defer cancel()
	store, err := pipeline.OpenDataset(ctx, &c.spec, c.resilience.NewSet())
	if err != nil {
		return err
	}
	defer store.Close()
	p, err := pipeline.Prepare(store, &c.spec, c.checkpoint, c.place)
	if err != nil {
		return err
	}
	if p.Restart != nil {
		fmt.Println(p.Restart)
	}

	if c.pprof != "" {
		go func() {
			if err := http.ListenAndServe(c.pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "haralick4d: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", c.pprof)
	}

	cfg := p.Config
	if c.crashAfter > 0 {
		// Fault-injection hook for the restart smoke test: kill the first
		// texture copy while it holds an in-flight buffer.
		name := "HMP"
		if cfg.Impl == pipeline.SplitImpl {
			name = "HCC"
		}
		if spec, ok := p.Graph.Filter(name); ok {
			spec.New = fault.CrashAfter(spec.New, 0, c.crashAfter)
		}
	}
	fmt.Printf("dataset %v, ROI %v, G=%d, %s/%s/%s on %s engine\n",
		store.Meta.Dims, cfg.Analysis.ROI, cfg.Analysis.GrayLevels, cfg.Impl, cfg.Analysis.Representation, cfg.Policy, c.engine)
	rep, degraded, err := p.Run(ctx, c.engine, &pipeline.RunOptions{Options: filter.Options{Resilience: c.resilience}})
	if err != nil {
		return err
	}
	fmt.Printf("done in %v; output dims %v\n", rep.Elapsed(), p.OutDims)
	if c.metrics || c.metricsJSON != "" {
		if err := rep.Validate(); err != nil {
			return fmt.Errorf("run report: %v", err)
		}
	}
	if c.metrics {
		fmt.Print(rep.String())
	}
	if c.metricsJSON != "" {
		data, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("run report: %v", err)
		}
		if c.metricsJSON == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(c.metricsJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if p.Results != nil {
		if degraded != nil {
			fmt.Println(degraded)
		}
		fmt.Println("results collected in memory (use -format jpeg or uso to persist)")
	}
	return nil
}

// place applies the layout flags to the spec's configuration and placement:
// -graph replaces the analysis and placement with the XML's, -iic adds IIC
// copies.
func (c *cli) place(cfg *pipeline.Config, layout *pipeline.Layout) error {
	if c.graph != "" {
		doc, err := netdesc.ParseFile(c.graph)
		if err != nil {
			return err
		}
		gcfg, glayout, err := doc.Build()
		if err != nil {
			return err
		}
		// The XML describes the analysis and the placement; the reading
		// side and the kernel's worker count still come from the spec.
		gcfg.ReadAhead, gcfg.FaultPolicy = cfg.ReadAhead, cfg.FaultPolicy
		gcfg.Analysis.Workers = cfg.Analysis.Workers
		if c.spec.OutDir != "" {
			gcfg.OutDir = c.spec.OutDir
		}
		*cfg, *layout = *gcfg, *glayout
	} else {
		// Extra IIC copies each get a node of their own after the texture
		// nodes, which ConfigFor places last.
		tex := layout.HMPNodes
		if tex == nil {
			tex = layout.HCCNodes
		}
		for next := tex[len(tex)-1] + 1; len(layout.IICNodes) < c.iic; next++ {
			layout.IICNodes = append(layout.IICNodes, next)
		}
	}
	if cfg.Output != pipeline.OutputCollect && cfg.OutDir == "" {
		return errors.New("an output directory is required (use -out)")
	}
	return nil
}
