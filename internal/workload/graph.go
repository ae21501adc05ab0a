package workload

import (
	"errors"
	"fmt"
	"os"
	"sort"
)

// ErrBadTopology reports an invalid service-topology document: YAML the
// subset parser rejects, unknown fields, dangling call edges, cycles, or
// out-of-range parameters.
var ErrBadTopology = errors.New("workload: invalid service topology")

// ServiceSpec is one microservice in a service topology: its QoS class,
// optional edge-cloud pinning, per-request work, downstream error rate,
// and fan-out call edges.
type ServiceSpec struct {
	// Name identifies the service; call edges and flows reference it.
	Name string `json:"name"`
	// Class is the QoS class (DelaySensitive by default).
	Class Class `json:"class"`
	// Cloud pins the service to an edge-cloud id (1-based); 0 means the
	// simulator assigns clouds round-robin.
	Cloud int `json:"cloud,omitempty"`
	// Work is the mean work units per request; 0 falls back to the
	// simulator's configured mean.
	Work float64 `json:"work,omitempty"`
	// ErrorRate is the probability a completed request fails and does
	// not fan out to downstream services.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Calls are the downstream services invoked after a successful
	// completion.
	Calls []CallSpec `json:"calls,omitempty"`
}

// CallSpec is a fan-out edge from one service to another.
type CallSpec struct {
	// To names the callee service.
	To string `json:"to"`
	// Prob is the probability the call happens (default 1).
	Prob float64 `json:"prob,omitempty"`
}

// EntrySpec is an external arrival source feeding one service.
type EntrySpec struct {
	// Service names the entry-point service.
	Service string `json:"service"`
	// Arrivals describes the arrival process.
	Arrivals ArrivalSpec `json:"arrivals"`
}

// FlowSpec is a multi-step user flow: each arriving user traverses the
// listed services in order, each step queueing like a normal request
// (and still fanning out through that service's call edges).
type FlowSpec struct {
	// Name identifies the flow.
	Name string `json:"name"`
	// Steps are the service names traversed in order.
	Steps []string `json:"steps"`
	// Arrivals describes how flow users arrive.
	Arrivals ArrivalSpec `json:"arrivals"`
}

// ServiceGraph is a parsed and validated service topology: the call
// graph the workload engine simulates to derive per-microservice AHP
// indicators from load instead of sampling them i.i.d.
type ServiceGraph struct {
	// Name labels the topology in traces and reports.
	Name string `json:"name"`
	// Services are the microservices, in document order.
	Services []ServiceSpec `json:"services"`
	// Entries are the external arrival sources.
	Entries []EntrySpec `json:"entries,omitempty"`
	// Flows are the multi-step user flows.
	Flows []FlowSpec `json:"flows,omitempty"`
}

// Index returns the position of the named service, or -1.
func (g *ServiceGraph) Index(name string) int {
	for i, s := range g.Services {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy, so sweeps can scale a builtin graph's
// parameters without mutating the shared definition.
func (g *ServiceGraph) Clone() *ServiceGraph {
	out := &ServiceGraph{Name: g.Name}
	out.Services = make([]ServiceSpec, len(g.Services))
	for i, s := range g.Services {
		cp := s
		cp.Calls = append([]CallSpec(nil), s.Calls...)
		out.Services[i] = cp
	}
	out.Entries = append([]EntrySpec(nil), g.Entries...)
	out.Flows = make([]FlowSpec, len(g.Flows))
	for i, f := range g.Flows {
		cp := f
		cp.Steps = append([]string(nil), f.Steps...)
		out.Flows[i] = cp
	}
	return out
}

// Validate checks structural invariants: at least one service, unique
// names, resolvable edges/entries/flow steps, an acyclic call graph
// (cascades must terminate), probabilities in range, and well-formed
// arrival specs. Parse and Load call it; callers constructing graphs in
// code should too.
func (g *ServiceGraph) Validate() error {
	if len(g.Services) == 0 {
		return fmt.Errorf("%w: no services", ErrBadTopology)
	}
	idx := make(map[string]int, len(g.Services))
	for i, s := range g.Services {
		if s.Name == "" {
			return fmt.Errorf("%w: services[%d]: missing name", ErrBadTopology, i)
		}
		if _, dup := idx[s.Name]; dup {
			return fmt.Errorf("%w: duplicate service name %q", ErrBadTopology, s.Name)
		}
		idx[s.Name] = i
		if s.Class != DelaySensitive && s.Class != DelayTolerant {
			return fmt.Errorf("%w: service %q: invalid class %d", ErrBadTopology, s.Name, s.Class)
		}
		if s.Cloud < 0 {
			return fmt.Errorf("%w: service %q: negative cloud id", ErrBadTopology, s.Name)
		}
		if s.Work < 0 {
			return fmt.Errorf("%w: service %q: negative work", ErrBadTopology, s.Name)
		}
		if s.ErrorRate < 0 || s.ErrorRate >= 1 {
			return fmt.Errorf("%w: service %q: error_rate must be in [0, 1), got %v", ErrBadTopology, s.Name, s.ErrorRate)
		}
		for _, c := range s.Calls {
			if _, ok := idx[c.To]; !ok && g.Index(c.To) < 0 {
				return fmt.Errorf("%w: service %q calls unknown service %q", ErrBadTopology, s.Name, c.To)
			}
			if c.Prob < 0 || c.Prob > 1 {
				return fmt.Errorf("%w: service %q call to %q: prob must be in [0, 1], got %v", ErrBadTopology, s.Name, c.To, c.Prob)
			}
		}
	}
	// The call graph must be a DAG: a cycle would let one request spawn
	// unboundedly many cascade events inside a round.
	state := make([]int, len(g.Services)) // 0 unvisited, 1 on stack, 2 done
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("%w: call cycle through service %q", ErrBadTopology, g.Services[i].Name)
		case 2:
			return nil
		}
		state[i] = 1
		for _, c := range g.Services[i].Calls {
			if err := visit(g.Index(c.To)); err != nil {
				return err
			}
		}
		state[i] = 2
		return nil
	}
	for i := range g.Services {
		if err := visit(i); err != nil {
			return err
		}
	}
	if len(g.Entries) == 0 && len(g.Flows) == 0 {
		return fmt.Errorf("%w: no entries or flows — nothing generates load", ErrBadTopology)
	}
	for i, e := range g.Entries {
		if g.Index(e.Service) < 0 {
			return fmt.Errorf("%w: entries[%d]: unknown service %q", ErrBadTopology, i, e.Service)
		}
		if err := e.Arrivals.validate(fmt.Sprintf("entries[%d]", i)); err != nil {
			return err
		}
	}
	for i, f := range g.Flows {
		if f.Name == "" {
			return fmt.Errorf("%w: flows[%d]: missing name", ErrBadTopology, i)
		}
		if len(f.Steps) == 0 {
			return fmt.Errorf("%w: flow %q: no steps", ErrBadTopology, f.Name)
		}
		for _, step := range f.Steps {
			if g.Index(step) < 0 {
				return fmt.Errorf("%w: flow %q: unknown step service %q", ErrBadTopology, f.Name, step)
			}
		}
		if err := f.Arrivals.validate(fmt.Sprintf("flow %q", f.Name)); err != nil {
			return err
		}
	}
	return nil
}

// VisitRates returns each service's expected arrivals per round at the
// nominal (long-run mean) entry rates, propagated through the call
// graph: entry and flow-step arrivals plus upstream completions scaled
// by (1 − error_rate) · prob. This is the load-derived analogue of the
// i.i.d. request-rate indicator, and what the simulator sizes target
// rates from.
func (g *ServiceGraph) VisitRates(rounds int) []float64 {
	rates := make([]float64, len(g.Services))
	for _, e := range g.Entries {
		rates[g.Index(e.Service)] += e.Arrivals.MeanIntensity(rounds)
	}
	for _, f := range g.Flows {
		r := f.Arrivals.MeanIntensity(rounds)
		for _, step := range f.Steps {
			rates[g.Index(step)] += r
		}
	}
	// Propagate in topological order (Kahn on the validated DAG).
	indeg := make([]int, len(g.Services))
	for _, s := range g.Services {
		for _, c := range s.Calls {
			indeg[g.Index(c.To)]++
		}
	}
	queue := make([]int, 0, len(g.Services))
	for i := range g.Services {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		s := g.Services[i]
		for _, c := range s.Calls {
			j := g.Index(c.To)
			prob := c.Prob
			if prob == 0 {
				prob = 1
			}
			rates[j] += rates[i] * (1 - s.ErrorRate) * prob
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return rates
}

// ParseServiceGraph parses and validates a YAML service topology.
func ParseServiceGraph(data []byte) (*ServiceGraph, error) {
	doc, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTopology, err)
	}
	root, err := yamlMap(doc, "topology")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTopology, err)
	}
	g := &ServiceGraph{}
	for key, val := range root {
		var err error
		switch key {
		case "name":
			g.Name, err = yamlStr(val, "name")
		case "services":
			g.Services, err = parseServices(val)
		case "entries":
			g.Entries, err = parseEntries(val)
		case "flows":
			g.Flows, err = parseFlows(val)
		default:
			err = fmt.Errorf("unknown top-level field %q", key)
		}
		if err != nil {
			if errors.Is(err, ErrBadTopology) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrBadTopology, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadServiceGraph reads and parses a topology file.
func LoadServiceGraph(path string) (*ServiceGraph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTopology, err)
	}
	g, err := ParseServiceGraph(data)
	if err != nil {
		return nil, fmt.Errorf("%v (file %s)", err, path)
	}
	return g, nil
}

// ResolveGraph loads the topology a command line selects with its
// -workload (builtin name) and -topology (YAML file) flags. Setting both
// is an error; setting neither returns nil.
func ResolveGraph(builtin, path string) (*ServiceGraph, error) {
	switch {
	case builtin != "" && path != "":
		return nil, fmt.Errorf("-workload and -topology are mutually exclusive")
	case builtin != "":
		return BuiltinGraph(builtin)
	case path != "":
		return LoadServiceGraph(path)
	default:
		return nil, nil
	}
}

func parseServices(v any) ([]ServiceSpec, error) {
	seq, err := yamlSeq(v, "services")
	if err != nil {
		return nil, err
	}
	out := make([]ServiceSpec, 0, len(seq))
	for i, item := range seq {
		path := fmt.Sprintf("services[%d]", i)
		m, err := yamlMap(item, path)
		if err != nil {
			return nil, err
		}
		spec := ServiceSpec{Class: DelaySensitive}
		for key, val := range m {
			p := path + "." + key
			var err error
			switch key {
			case "name":
				spec.Name, err = yamlStr(val, p)
			case "class":
				var s string
				if s, err = yamlStr(val, p); err == nil {
					switch s {
					case "sensitive", "delay-sensitive":
						spec.Class = DelaySensitive
					case "tolerant", "delay-tolerant":
						spec.Class = DelayTolerant
					default:
						err = fmt.Errorf("%s: unknown class %q (want sensitive or tolerant)", p, s)
					}
				}
			case "cloud":
				spec.Cloud, err = yamlInt(val, p)
			case "work":
				spec.Work, err = yamlFloat(val, p)
			case "error_rate":
				spec.ErrorRate, err = yamlFloat(val, p)
			case "calls":
				spec.Calls, err = parseCalls(val, p)
			default:
				err = fmt.Errorf("%s: unknown service field %q", path, key)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseCalls(v any, path string) ([]CallSpec, error) {
	seq, err := yamlSeq(v, path)
	if err != nil {
		return nil, err
	}
	out := make([]CallSpec, 0, len(seq))
	for i, item := range seq {
		p := fmt.Sprintf("%s[%d]", path, i)
		// A bare string is shorthand for an always-taken edge.
		if s, ok := item.(string); ok {
			out = append(out, CallSpec{To: s, Prob: 1})
			continue
		}
		m, err := yamlMap(item, p)
		if err != nil {
			return nil, err
		}
		call := CallSpec{Prob: 1}
		for key, val := range m {
			var err error
			switch key {
			case "to":
				call.To, err = yamlStr(val, p+".to")
			case "prob":
				call.Prob, err = yamlFloat(val, p+".prob")
			default:
				err = fmt.Errorf("%s: unknown call field %q", p, key)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, call)
	}
	return out, nil
}

func parseEntries(v any) ([]EntrySpec, error) {
	seq, err := yamlSeq(v, "entries")
	if err != nil {
		return nil, err
	}
	out := make([]EntrySpec, 0, len(seq))
	for i, item := range seq {
		path := fmt.Sprintf("entries[%d]", i)
		m, err := yamlMap(item, path)
		if err != nil {
			return nil, err
		}
		var spec EntrySpec
		for key, val := range m {
			var err error
			switch key {
			case "service":
				spec.Service, err = yamlStr(val, path+".service")
			case "arrivals":
				spec.Arrivals, err = parseArrivalSpec(val, path+".arrivals")
			default:
				err = fmt.Errorf("%s: unknown entry field %q", path, key)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseFlows(v any) ([]FlowSpec, error) {
	seq, err := yamlSeq(v, "flows")
	if err != nil {
		return nil, err
	}
	out := make([]FlowSpec, 0, len(seq))
	for i, item := range seq {
		path := fmt.Sprintf("flows[%d]", i)
		m, err := yamlMap(item, path)
		if err != nil {
			return nil, err
		}
		var spec FlowSpec
		for key, val := range m {
			var err error
			switch key {
			case "name":
				spec.Name, err = yamlStr(val, path+".name")
			case "steps":
				var steps []any
				if steps, err = yamlSeq(val, path+".steps"); err == nil {
					for j, sv := range steps {
						var s string
						if s, err = yamlStr(sv, fmt.Sprintf("%s.steps[%d]", path, j)); err != nil {
							break
						}
						spec.Steps = append(spec.Steps, s)
					}
				}
			case "arrivals":
				spec.Arrivals, err = parseArrivalSpec(val, path+".arrivals")
			default:
				err = fmt.Errorf("%s: unknown flow field %q", path, key)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, spec)
	}
	return out, nil
}
