// The serve subcommand: `haralick4d serve` starts the multi-job analysis
// daemon (internal/server) and runs it until SIGTERM or ^C triggers a
// graceful drain — stop admissions, checkpoint and park running jobs,
// exit. A daemon killed outright (SIGKILL, OOM, power) instead recovers on
// its next start from the job journal in -state-dir.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"haralick4d/internal/cliflags"
	"haralick4d/internal/server"
)

func serveMain(args []string) {
	fs := flag.NewFlagSet("haralick4d serve", flag.ExitOnError)
	var (
		addr     = fs.String("serve-addr", "localhost:7474", "HTTP listen address of the control API")
		stateDir = fs.String("state-dir", "", "daemon state directory: job journal, per-job checkpoints, default output dirs (required)")
		maxJobs  = fs.Int("max-jobs", 0, "concurrently running jobs (0 = default 2)")
		maxQueue = fs.Int("max-queue", 0, "admission queue bound; submits beyond it are shed with 429 (0 = default 16)")
		drainS   = fs.String("drain-timeout", "", "graceful-drain bound on SIGTERM/^C, e.g. 45s (default 30s)")
		stallS   = fs.String("stall-timeout", "", "per-job stall watchdog default when a spec leaves stall_timeout 0, e.g. 2m (default: disabled)")
		brkS     = fs.String("breaker", "", "circuit breaker \"consec[,open-for[,window,error-rate]]\" shared per backend host across jobs (empty = off)")
		budgetS  = fs.String("retry-budget", "", "shared retry budget \"tokens[,ratio]\" per backend host (empty = unbounded)")
		hedgeS   = fs.String("hedge-after", "", "hedge backend range reads not answered within this duration, e.g. 200ms (empty = off)")
	)
	fs.Parse(args)
	cfg, err := cliflags.ParseServeFlags(*addr, *stateDir,
		*maxJobs, *maxQueue, *drainS, *stallS)
	if err == nil {
		cfg.Resilience, err = cliflags.ParseResilienceFlags("", *brkS, *budgetS, *hedgeS)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d serve: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	cfg.Logf = log.Printf
	s, err := server.New(*cfg)
	if err != nil {
		fail("serve: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx); err != nil {
		fail("serve: %v", err)
	}
}
