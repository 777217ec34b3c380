// Package autotune closes the loop between the run report's live metrics
// and the pipeline's cheap-to-change knobs, after the run-time parameter
// tuning argument of arXiv 1910.14548: rather than hand-picking compute
// concurrency per machine and workload, a small hill-climbing controller
// observes throughput every tick and walks its knobs toward the best
// observed rate, with hysteresis so noise does not cause oscillation and a
// fixed-seed tie-break so a given metric trace always reproduces the same
// decision log. (Read-ahead depth is not one of them: each reader sizes its
// own from the fetch and consume times it measures — internal/readahead.)
//
// Two tuning regimes share this package:
//
//   - Live (in-run): Controller resizes the texture filters' admission
//     semaphore while the engines run, fed by metrics.Snapshot samples
//     from the filter runtime's Monitor hook. Tuning only changes
//     scheduling, never routing or values, so the texture output stays
//     bit-identical to an untuned run.
//   - Cross-run: Memo journals (config fingerprint, parameter cell) →
//     measured result, so repeated experiment sweeps over the expensive
//     knobs (chunk dims, copy counts, kernel block) reuse prior trials
//     instead of recomputing them.
package autotune

import (
	"sync"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/sem"
)

// Defaults for Config zero values.
const (
	DefaultInterval   = 100 * time.Millisecond
	DefaultHysteresis = 0.05
	DefaultSeed       = 1
)

// Config parameterizes a Controller. The zero value is usable: seed 1,
// 100 ms ticks, 5% hysteresis.
type Config struct {
	// Seed fixes the tie-break RNG so a given metric trace reproduces the
	// same decisions. 0 means DefaultSeed.
	Seed int64
	// Interval is the sampling period of the live loop. 0 means
	// DefaultInterval.
	Interval time.Duration
	// Hysteresis is the relative dead-band around the baseline rate: a
	// move is accepted only above baseline×(1+h) and reverted only below
	// baseline×(1−h). 0 means DefaultHysteresis.
	Hysteresis float64
	// CacheStats, when set, is sampled into each snapshot's block-cache
	// fields (hits, misses) — observability for the decision log.
	CacheStats func() (hits, misses int64)
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return DefaultInterval
	}
	return c.Interval
}

func (c Config) hysteresis() float64 {
	if c.Hysteresis <= 0 {
		return DefaultHysteresis
	}
	return c.Hysteresis
}

// knob is one tunable parameter: an actuator (get/set), a step rule, and
// hill-climbing state.
type knob struct {
	name  string
	get   func() int
	set   func(int) int // clamps; returns the applied value
	step  func(cur, dir int) int
	dir   int
	prev  int  // value before the in-flight move
	moved bool // a move awaits evaluation
	cool  int  // ticks to skip after a revert
}

// Controller is the deterministic feedback loop. Knobs are registered
// before the run via the Enable* methods; during the run either Run drives
// Step from a ticker, or a test drives Step directly with a synthetic
// snapshot trace.
type Controller struct {
	cfg  Config
	hyst float64
	tick time.Duration
	rng  uint64

	mu        sync.Mutex
	knobs     []*knob
	active    int
	decisions []metrics.TuningDecision

	lastMsgs int64
	lastWall int64
	baseline float64 // accepted msgs/ns rate of the current configuration
	haveBase bool
}

// New returns a controller with no knobs; Enable* methods register them.
func New(cfg Config) *Controller {
	return &Controller{
		cfg:  cfg,
		hyst: cfg.hysteresis(),
		tick: cfg.interval(),
		rng:  uint64(cfg.seed()),
	}
}

// Interval returns the live loop's sampling period.
func (c *Controller) Interval() time.Duration { return c.tick }

// xorshift64star — the deterministic tie-break source.
func (c *Controller) rand() uint64 {
	c.rng ^= c.rng >> 12
	c.rng ^= c.rng << 25
	c.rng ^= c.rng >> 27
	return c.rng * 0x2545F4914F6CDD1D
}

func (c *Controller) record(atNS int64, name string, from, to int, trigger string, rate float64) {
	c.decisions = append(c.decisions, metrics.TuningDecision{
		AtNS: atNS, Knob: name, From: from, To: to,
		Trigger: trigger, Metric: rate * 1e9, // msgs/ns → msgs/s
	})
}

// EnableAdmission registers the compute-admission knob and returns the
// semaphore the texture filters must share: they take one credit before
// computing a chunk and return it after, so its limit is the effective
// compute concurrency across their copies — turned down to shed concurrency
// when copies thrash, and back up when the pipeline is compute-starved. The
// climb is additive (±1) over [lo, hi], defaulting downward: with copies
// already sized by the layout, the interesting experiment is usually
// shedding concurrency when copies contend.
func (c *Controller) EnableAdmission(start, lo, hi int) *sem.Sem {
	t := sem.New(start, lo, hi)
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &knob{
		name: "admission",
		get:  t.Limit,
		set:  t.Resize,
		step: func(cur, dir int) int { return cur + dir },
		dir:  -1,
	}
	c.knobs = append(c.knobs, k)
	c.record(0, k.name, t.Limit(), t.Limit(), "init", 0)
	return t
}

// Step consumes one snapshot and possibly turns one knob. It is the whole
// control law, deterministic in (seed, snapshot trace):
//
//   - The objective is the message completion rate: Δ(total MsgsOut) over
//     Δwall between consecutive snapshots.
//   - Warm-up ticks (no output yet) and clock-stalled ticks are skipped.
//   - A pending move is evaluated against the baseline with hysteresis:
//     accepted (rate > base×(1+h): new baseline, keep climbing), reverted
//     (rate < base×(1−h): restore, flip direction, 2-tick cooldown,
//     re-measure baseline), or neutral (keep the value; a seeded coin
//     decides between probing this knob again and rotating to the next).
//   - Otherwise the active knob proposes its next value; a knob pinned at
//     its bound flips direction and rotates.
func (c *Controller) Step(s *metrics.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.knobs) == 0 {
		return
	}
	msgs := s.TotalMsgsOut()
	wall := s.WallNS
	if msgs == 0 || wall <= c.lastWall {
		return // warm-up: leave the window anchored at the last real tick
	}
	if c.lastWall == 0 {
		c.lastMsgs, c.lastWall = msgs, wall
		return
	}
	rate := float64(msgs-c.lastMsgs) / float64(wall-c.lastWall)
	c.lastMsgs, c.lastWall = msgs, wall

	k := c.knobs[c.active]
	if !c.haveBase {
		c.baseline, c.haveBase = rate, true
	} else if k.moved {
		k.moved = false
		switch {
		case rate > c.baseline*(1+c.hyst):
			c.baseline = rate // improvement: keep the value, keep climbing
		case rate < c.baseline*(1-c.hyst):
			cur := k.get()
			applied := k.set(k.prev)
			c.record(wall, k.name, cur, applied, "revert", rate)
			k.dir = -k.dir
			k.cool = 2
			c.haveBase = false // re-measure after the revert settles
			c.advance()
			return
		default:
			// Neutral: seeded coin — probe this knob again or rotate.
			if c.rand()&1 == 0 {
				c.advance()
			}
			c.baseline = rate
			return
		}
	}
	if k.cool > 0 {
		k.cool--
		c.advance()
		return
	}
	cur := k.get()
	applied := k.set(k.step(cur, k.dir))
	if applied == cur { // pinned at a bound: flip and rotate
		k.dir = -k.dir
		c.advance()
		return
	}
	k.prev = cur
	k.moved = true
	c.record(wall, k.name, cur, applied, "climb", rate)
}

func (c *Controller) advance() {
	c.active = (c.active + 1) % len(c.knobs)
}

// Run drives Step from a ticker until stop closes — the function the
// filter runtime's Monitor hook calls. snap must be safe to call from
// this goroutine (filter.Probe.Snapshot is).
func (c *Controller) Run(stop <-chan struct{}, snap func() *metrics.Snapshot) {
	t := time.NewTicker(c.tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s := snap()
			if c.cfg.CacheStats != nil {
				s.CacheHits, s.CacheMisses = c.cfg.CacheStats()
			}
			c.Step(s)
		}
	}
}

// Decisions returns a copy of the decision log so far.
func (c *Controller) Decisions() []metrics.TuningDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]metrics.TuningDecision(nil), c.decisions...)
}

// Attach writes the controller's decision log and final knob values into
// the run report's Tuning section.
func (c *Controller) Attach(rep *metrics.RunReport) {
	if c == nil || rep == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &metrics.TuningReport{
		Seed:       c.cfg.seed(),
		IntervalNS: int64(c.tick),
		Decisions:  append([]metrics.TuningDecision(nil), c.decisions...),
	}
	if len(c.knobs) > 0 {
		t.Final = make(map[string]int, len(c.knobs))
		for _, k := range c.knobs {
			t.Final[k.name] = k.get()
		}
	}
	rep.Tuning = t
}
