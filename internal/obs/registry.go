package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Labels is one metric child's label set. Label order on the wire is
// always sorted by name, so two Labels maps with the same contents name
// the same child.
type Labels map[string]string

// kind is the exposition type of a metric family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one (metric family, label set) instance. Exactly one of the
// value fields is populated, matching the family's kind; fn and hfn,
// when set, override the stored value at collection time (gauge and
// histogram funcs).
type child struct {
	labels string // pre-rendered {a="b",c="d"} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
	hfn    func() HistogramSnapshot
}

// family is one named metric with its children in registration order.
type family struct {
	name     string
	help     string
	kind     kind
	children []*child
	byLabels map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is expected at construction time
// (package init, server construction); collection may run concurrently
// with metric updates. The zero value is not usable; construct with
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry collects the process-global engine metrics: the dist,
// core, and optimize packages register their counters and stage
// histograms here at init, and every /metrics handler exports it
// alongside its server's own registry.
var defaultRegistry = NewRegistry()

// Default returns the process-global engine registry.
func Default() *Registry { return defaultRegistry }

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]* (the colon forms are reserved for recording
// rules and rejected here on purpose).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels serializes a label set in sorted-name order, validating
// names. Returns "" for an empty set.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		if !validName(n) {
			panic(fmt.Sprintf("obs: invalid label name %q", n))
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[n]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register adds one child, creating its family on first sight and
// enforcing the registry invariants: one kind and help per name, one
// child per label set. Violations panic — registration happens at
// construction time, where these are programming errors a test must
// catch, not runtime conditions to limp past.
func (r *Registry) register(name, help string, k kind, labels Labels, ch *child) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ch.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byLabels: map[string]*child{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, k, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered with different help", name))
	}
	if f.byLabels[ch.labels] != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, ch.labels))
	}
	f.byLabels[ch.labels] = ch
	f.children = append(f.children, ch)
}

// Counter creates and registers a counter child.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, c)
	return c
}

// RegisterCounter registers an existing counter — the bridge for
// counters owned by other packages (qcache, dist) that must keep their
// own accessors.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.register(name, help, kindCounter, labels, &child{c: c})
}

// Gauge creates and registers a gauge child.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, &child{g: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at collection
// time — for values that already live elsewhere (cache entry counts,
// uptime) and would be silly to mirror into an atomic.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindGauge, labels, &child{fn: fn})
}

// Histogram creates and registers a histogram child over the given
// bucket upper bounds (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, kindHistogram, labels, &child{h: h})
	return h
}

// HistogramFunc registers a histogram whose snapshot is produced by fn at
// collection time — for distributions that already live elsewhere (the
// runtime/metrics GC-pause and scheduler-latency histograms) and would be
// lossy to mirror observation-by-observation into a fixed bucket layout.
func (r *Registry) HistogramFunc(name, help string, labels Labels, fn func() HistogramSnapshot) {
	r.register(name, help, kindHistogram, labels, &child{hfn: fn})
}

// FindCounter returns the counter registered under name with exactly the
// given label set, or nil when no such counter exists. It is the
// read-side bridge for subsystems that annotate their own data with
// registry counters they do not own — the flight recorder resolves the
// engine counters it snapshots per request this way, staying decoupled
// from the packages that registered them.
func (r *Registry) FindCounter(name string, labels Labels) *Counter {
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindCounter {
		return nil
	}
	ch := f.byLabels[rendered]
	if ch == nil {
		return nil
	}
	return ch.c
}

// FamilyInfo describes one registered family for introspection — the
// metric-name lint test checks naming conventions per kind with it.
type FamilyInfo struct {
	Name string
	Kind string // "counter", "gauge", or "histogram"
}

// Families returns every registered family's name and kind in
// registration order.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, FamilyInfo{Name: name, Kind: r.families[name].kind.String()})
	}
	return out
}
