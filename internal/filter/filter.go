// Package filter is a filter-stream middleware in the style of DataCutter,
// the runtime the paper builds on: a data-intensive application is expressed
// as a set of filters connected by unidirectional streams that deliver data
// in user-defined buffers.
//
// Filters are placed on (physical or virtual) nodes; multiple transparent
// copies of a filter may be instantiated, with the runtime distributing
// buffers among them round-robin or demand-driven, or explicit copies that
// the producer addresses directly. Buffers exchanged between co-located
// filter copies are handed over by pointer; buffers crossing nodes are
// serialized over real TCP sockets (RunTCP), or charged to the modeled
// links of a simulated cluster (RunSim over a cluster.Topology).
//
// Every engine is one runtime on one of two clocks: the wall clock, with
// every filter copy a goroutine, or the simulated cluster's virtual clock,
// which runs one copy at a time (see clock.go). The same Filter
// implementations run unmodified under every engine.
package filter

import (
	"context"
	"fmt"
	"sort"

	"haralick4d/internal/metrics"
)

// Payload is the body of a data buffer exchanged on a stream. SizeBytes
// reports the approximate serialized size; the schedulers and the network
// models use it. Concrete payload types crossing TCP implement WirePayload
// or are registered with encoding/gob by the package defining them.
type Payload interface {
	SizeBytes() int
}

// Msg is one received buffer: the input port it arrived on and its payload.
type Msg struct {
	Port    string
	Payload Payload
}

// Filter is one operational task of the application. Run is invoked once
// per transparent copy; it consumes input buffers via ctx.Recv until the
// context reports end-of-stream, and emits buffers via ctx.Send. Returning
// a non-nil error aborts the whole application run.
type Filter interface {
	Run(ctx Context) error
}

// Func adapts a plain function to the Filter interface.
type Func func(ctx Context) error

// Run implements Filter.
func (f Func) Run(ctx Context) error { return f(ctx) }

// Context is the runtime interface handed to each filter copy: the one
// runtime's, under every engine (local goroutines, TCP, simulated cluster).
type Context interface {
	// FilterName returns the logical filter name.
	FilterName() string
	// CopyIndex returns this copy's index in [0, NumCopies).
	CopyIndex() int
	// NumCopies returns the number of transparent copies of this filter.
	NumCopies() int
	// Node returns the id of the node this copy is placed on.
	Node() int
	// ConsumerCopies returns the number of copies of the filter consuming
	// the given output port (for explicit routing decisions).
	ConsumerCopies(port string) int
	// Recv blocks until a buffer arrives on any input port. ok is false
	// when every upstream copy has finished (end of all streams).
	Recv() (Msg, bool)
	// Send emits a buffer on an output port, letting the connection policy
	// pick the consumer copy. It blocks when the consumer's queue is full
	// (stream backpressure). It fails on explicit connections.
	Send(port string, p Payload) error
	// SendTo emits a buffer to a specific consumer copy (explicit routing).
	SendTo(port string, copy int, p Payload) error
	// Metrics returns this copy's metric set for span and pool-counter
	// recording. Every run keeps one per copy; it is never nil.
	Metrics() *metrics.Copy
	// Aborting reports whether the runtime is tearing the run down after a
	// failure: an end-of-stream a filter observes then is a side effect of
	// the abort, not completion. Sinks that finalize durable artifacts on
	// clean end-of-stream (filters.NewUSO) check it.
	Aborting() bool
	// RunContext is cancelled when the run aborts — the bridge between the
	// runtime and context-aware I/O (backend reads, HTTP range requests).
	RunContext() context.Context
}

// Policy selects how a connection distributes buffers among the consumer's
// transparent copies (paper §4.1).
type Policy int

const (
	// RoundRobin assigns buffers to each transparent copy in turn, so each
	// receives roughly the same amount of data.
	RoundRobin Policy = iota
	// DemandDriven assigns each buffer to the copy with the smallest
	// outstanding queue — the copy that can process it the fastest.
	DemandDriven
	// Explicit requires the producer to address a copy with SendTo.
	Explicit
)

// String returns the policy's flag name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case DemandDriven:
		return "demand-driven"
	case Explicit:
		return "explicit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "demand-driven", "dd":
		return DemandDriven, nil
	case "explicit":
		return Explicit, nil
	}
	return 0, fmt.Errorf("filter: unknown policy %q", s)
}

// FilterSpec declares one logical filter: its factory, copy count and the
// node each copy is placed on.
type FilterSpec struct {
	Name   string
	Copies int
	// New builds the filter instance for one copy. Factories must not share
	// mutable state between copies unless it is synchronized.
	New func(copy int) Filter
	// Nodes[i] is the node hosting copy i. Nil places every copy on node 0.
	Nodes []int
}

// ConnSpec declares one stream bundle: every copy of the producer filter
// may send buffers on FromPort to the copies of the consumer filter.
type ConnSpec struct {
	From, FromPort string
	To, ToPort     string
	Policy         Policy
}

// Graph is the application description: filters plus connections. Build it
// with AddFilter/Connect, then hand it to an engine.
type Graph struct {
	Filters []FilterSpec
	Conns   []ConnSpec
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddFilter registers a filter spec and returns the graph for chaining.
func (g *Graph) AddFilter(fs FilterSpec) *Graph {
	g.Filters = append(g.Filters, fs)
	return g
}

// Connect registers a connection and returns the graph for chaining.
func (g *Graph) Connect(c ConnSpec) *Graph {
	g.Conns = append(g.Conns, c)
	return g
}

// Filter returns the spec with the given name.
func (g *Graph) Filter(name string) (*FilterSpec, bool) {
	for i := range g.Filters {
		if g.Filters[i].Name == name {
			return &g.Filters[i], true
		}
	}
	return nil, false
}

// NumNodes returns one past the largest node id used by any placement.
func (g *Graph) NumNodes() int {
	n := 1
	for _, fs := range g.Filters {
		for _, node := range fs.Nodes {
			if node+1 > n {
				n = node + 1
			}
		}
	}
	return n
}

// Validate checks structural integrity: unique filter names, positive copy
// counts, factories present, placements well-formed, connections referring
// to existing filters, and at most one connection per (filter, output
// port). It normalizes nil placements to node 0.
func (g *Graph) Validate() error {
	seen := map[string]bool{}
	for i := range g.Filters {
		fs := &g.Filters[i]
		if fs.Name == "" {
			return fmt.Errorf("filter: filter %d has empty name", i)
		}
		if seen[fs.Name] {
			return fmt.Errorf("filter: duplicate filter name %q", fs.Name)
		}
		seen[fs.Name] = true
		if fs.Copies < 1 {
			return fmt.Errorf("filter: %s has %d copies, must be >= 1", fs.Name, fs.Copies)
		}
		if fs.New == nil {
			return fmt.Errorf("filter: %s has no factory", fs.Name)
		}
		if fs.Nodes == nil {
			fs.Nodes = make([]int, fs.Copies)
		}
		if len(fs.Nodes) != fs.Copies {
			return fmt.Errorf("filter: %s has %d copies but %d placements", fs.Name, fs.Copies, len(fs.Nodes))
		}
		for _, n := range fs.Nodes {
			if n < 0 {
				return fmt.Errorf("filter: %s placed on negative node %d", fs.Name, n)
			}
		}
	}
	outPorts := map[string]bool{}
	for _, c := range g.Conns {
		if _, ok := g.Filter(c.From); !ok {
			return fmt.Errorf("filter: connection from unknown filter %q", c.From)
		}
		if _, ok := g.Filter(c.To); !ok {
			return fmt.Errorf("filter: connection to unknown filter %q", c.To)
		}
		if c.FromPort == "" || c.ToPort == "" {
			return fmt.Errorf("filter: connection %s->%s has empty port name", c.From, c.To)
		}
		key := c.From + "." + c.FromPort
		if outPorts[key] {
			return fmt.Errorf("filter: output port %s connected twice", key)
		}
		outPorts[key] = true
		if c.Policy < RoundRobin || c.Policy > Explicit {
			return fmt.Errorf("filter: connection %s->%s has invalid policy %d", c.From, c.To, int(c.Policy))
		}
	}
	return nil
}

// ConnsFrom returns the connections leaving the given filter, sorted by
// port for determinism.
func (g *Graph) ConnsFrom(name string) []ConnSpec {
	var out []ConnSpec
	for _, c := range g.Conns {
		if c.From == name {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FromPort < out[j].FromPort })
	return out
}

// ConnsInto returns the connections entering the given filter.
func (g *Graph) ConnsInto(name string) []ConnSpec {
	var out []ConnSpec
	for _, c := range g.Conns {
		if c.To == name {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ToPort < out[j].ToPort })
	return out
}
