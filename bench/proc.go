package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// waitLimit bounds every wait on a child: process exit, a ready file, a log
// line, a job state. A wait that runs out becomes a failed operation.
const waitLimit = 60 * time.Second

// childProcs is the number of processors every program under test gets.
const childProcs = 2

// procs starts children in their own process groups and remembers the live
// ones, so every exit path of the harness can kill what is still running and
// a failed run leaves no orphan server behind.
type procs struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
}

func newProcs() *procs { return &procs{live: map[*exec.Cmd]bool{}} }

// start launches bin with GOMAXPROCS pinned to childProcs.
func (p *procs) start(bin string, stdout, stderr io.Writer, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p.mu.Lock()
	p.live[cmd] = true
	p.mu.Unlock()
	return cmd, nil
}

// usage is what the kernel accounted to one exited child.
type usage struct {
	cpu   time.Duration // user + system
	rssMB float64       // ru_maxrss
}

// wait blocks until cmd exits, killing its process group after waitLimit. A
// non-zero exit status is an error.
func (p *procs) wait(cmd *exec.Cmd) (usage, error) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(waitLimit):
		killGroup(cmd)
		<-done
		err = fmt.Errorf("no exit within %v, killed", waitLimit)
	}
	p.mu.Lock()
	delete(p.live, cmd)
	p.mu.Unlock()
	var u usage
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return u, fmt.Errorf("%s: %w", cmd.Path, err)
	}
	return u, nil
}

// run starts bin, waits for it, and returns its combined output on failure.
func (p *procs) run(bin string, args ...string) error {
	var out logBuffer
	cmd, err := p.start(bin, &out, &out, args...)
	if err != nil {
		return err
	}
	if _, err := p.wait(cmd); err != nil {
		return fmt.Errorf("%w\n%s", err, out.text())
	}
	return nil
}

// stop kills a helper's process group and reaps it.
func (p *procs) stop(cmd *exec.Cmd) {
	killGroup(cmd)
	_, _ = p.wait(cmd) // the kill is the expected cause of the error
}

// killAll kills and reaps every child still alive.
func (p *procs) killAll() {
	p.mu.Lock()
	var cmds []*exec.Cmd
	for cmd := range p.live {
		cmds = append(cmds, cmd)
	}
	p.mu.Unlock()
	for _, cmd := range cmds {
		p.stop(cmd)
	}
}

func killGroup(cmd *exec.Cmd) {
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ESRCH once it is gone
}

// logBuffer keeps the first 64 KiB a child writes: enough to find the
// daemon's listening line and to explain a failure, bounded for a chatty one.
type logBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := 64<<10 - len(b.buf); room > 0 {
		b.buf = append(b.buf, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

func (b *logBuffer) text() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// waitFor polls cond every 2 ms until it holds or waitLimit passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, waitLimit)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
