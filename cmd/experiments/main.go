// Command experiments regenerates the paper's evaluation: every figure
// (7a, 7b, 8, 9, 10, 11), the quantified in-text claims (sparse matrix
// density, zero-skip speedup), the IIC replication observation, and the
// design-choice ablations, on the simulated cluster testbed.
//
// Usage:
//
//	experiments                      # all figures at the small scale
//	experiments -fig 7b              # one figure
//	experiments -scale tiny -csv out # CSV series for plotting
//	experiments -scale paper         # full-size dataset (hours)
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"haralick4d/internal/experiments"
	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/runspec"
)

// validateCountFlags rejects the negative values the flag package happily
// parses; 0 keeps each flag's documented meaning (synchronous reads, all
// CPUs) and -readahead auto is no count.
func validateCountFlags(readAhead, kernelWorkers int) error {
	if readAhead < 0 && readAhead != readahead.Auto {
		return fmt.Errorf("-readahead must be >= 0, got %d", readAhead)
	}
	if kernelWorkers < 0 {
		return fmt.Errorf("-kernel-workers must be >= 0, got %d", kernelWorkers)
	}
	return nil
}

// parseReadAhead reads -readahead: a count of windows, or "auto" for
// readahead.Auto. Unlike a run spec's read-ahead, 0 here is synchronous
// reads: the figures are fixed-depth ablations.
func parseReadAhead(s string) (int, error) {
	if s == "auto" {
		return readahead.Auto, nil
	}
	return strconv.Atoi(s)
}

// bindSpecFlags registers the flags this binary shares with the run spec,
// parsed by the spec's value types and checked by its Validate.
func bindSpecFlags(fs *flag.FlagSet, spec *runspec.Spec) {
	fs.IntVar(&spec.CacheBlocks, "cache-blocks", 0, "block-cache budget between the dataset backend and the readers, in blocks (0 = no cache)")
	fs.IntVar(&spec.CacheBlockSize, "cache-block-size", 0, "block-cache granularity in bytes (default 128KiB; requires -cache-blocks)")
	// Only the watchdog half of the restart surface is exposed here:
	// resuming a half-finished figure sweep from a checkpoint would splice
	// timings from two separate processes into one curve, so the
	// checkpoint/-resume flags are deliberately haralick4d-only.
	fs.TextVar(&spec.StallTimeout, "stall-timeout", spec.StallTimeout, "fail a figure's engine run if no filter makes progress for this long, e.g. 5m (0 = disabled; virtual time on the simulated engine)")
}

func main() {
	var (
		fig      = flag.String("fig", "", "figure id: 7a, 7b, 8, 9, 10, 11, density, zeroskip, iic, dirs, chunk, decluster, kernel, autotune (default: all)")
		scaleS   = flag.String("scale", "small", "experiment scale: tiny, small, paper")
		dataDir  = flag.String("data", "", "reuse/create the phantom dataset in this directory (default: temp)")
		csvDir   = flag.String("csv", "", "also write each figure's series as CSV into this directory")
		repeats  = flag.Int("repeats", 3, "simulation repetitions per configuration (min is reported)")
		computeS = flag.Float64("compute-scale", experiments.DefaultComputeScale, "virtual seconds per host second on a speed-1 node")
		kworkers = flag.Int("kernel-workers", 1, "intra-chunk kernel workers inside each texture filter (0 = all CPUs, 1 = sequential reference kernel; the kernel figure sweeps this itself)")
		rdAhead  = 4
		spec     runspec.Spec
		memoP    = flag.String("memo", "", "autotune sweep memo file recording measured cells across invocations (default: autotune-memo.json next to the dataset; \"off\" disables)")
		metricsF = flag.Bool("metrics", false, "after each figure, print the run report of its last engine run")
		metJSON  = flag.String("metrics-json", "", "write the last figure's run report as JSON to this file (\"-\" for stdout)")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Func("readahead", "I/O windows each reader filter keeps in flight ahead of the pipeline: `N` (default 4: the figures are fixed-depth ablations), 0 (synchronous reads) or auto (self-sized); outputs are identical either way", func(s string) (err error) {
		rdAhead, err = parseReadAhead(s)
		return err
	})
	bindSpecFlags(flag.CommandLine, &spec)
	flag.Parse()
	err := validateCountFlags(rdAhead, *kworkers)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAt)
	}

	scale, err := experiments.ScaleByName(*scaleS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "haralick4d-exp")
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("preparing %s-scale phantom dataset (%v) under %s...\n", scale.Name, scale.Dims, dir)
	env, err := experiments.Setup(scale, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if spec.CacheBlocks > 0 {
		cached, err := env.Store.WithCache(spec.CacheBlockSize, spec.CacheBlocks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		env.Store = cached
	}
	// ^C and SIGTERM (what containers and orchestrators send first) cancel
	// the figures' engine runs cleanly; a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env.Ctx = ctx
	env.Repeats = *repeats
	env.ComputeScale = *computeS
	env.KernelWorkers = *kworkers
	env.ReadAhead = rdAhead
	env.StallTimeout = time.Duration(spec.StallTimeout)
	switch *memoP {
	case "":
		// keep Setup's default next to the dataset
	case "off":
		env.MemoPath = ""
	default:
		env.MemoPath = *memoP
	}

	ids := experiments.AllIDs()
	if *fig != "" {
		ids = []string{*fig}
	}
	// jsonReport tracks the most recent engine run across figures: the
	// in-process figures (density, zeroskip, dirs, kernel) never run an
	// engine and leave no report.
	var jsonReport *metrics.RunReport
	for _, id := range ids {
		env.LastReport = nil
		f, err := experiments.ByID(env, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(f.String())
		if env.LastReport != nil {
			jsonReport = env.LastReport
			if *metricsF {
				fmt.Print(env.LastReport.String())
				fmt.Println()
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, "fig"+f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  (csv: %s)\n\n", path)
		}
	}
	if *metJSON != "" {
		if jsonReport == nil {
			fmt.Fprintln(os.Stderr, "experiments: -metrics-json: no engine run produced a report")
			os.Exit(1)
		}
		if err := jsonReport.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: run report: %v\n", err)
			os.Exit(1)
		}
		data, err := jsonReport.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: run report: %v\n", err)
			os.Exit(1)
		}
		if *metJSON == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(*metJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}
