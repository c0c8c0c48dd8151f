package main

import (
	"encoding/json"
	"math"
	"strings"
)

// phaseNames are the NR phases reported from the flight recorder, in
// protocol order: the update path, then the read path.
var phaseNames = []string{
	"slot-publish", "combiner-pickup", "log-reserve", "log-fill", "execute", "respond",
	"tail-read", "rlock",
}

// Phases each completed op class passes through in /debug/trace. The
// exporter omits zero-width phases, so a missing one counts as 0 ns.
var classPhases = map[string][]string{
	"update": {"slot-publish", "combiner-pickup", "log-fill", "execute", "respond"},
	"read":   {"tail-read", "rlock"},
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

func ns(us float64) int64 { return int64(math.Round(us * 1e3)) }

// nrPhases turns the flight recorder's Chrome trace export into phase
// samples in ns, by phase name. Each op span ("update op seq=N" / "read op seq=N") and its
// phase children share a token; a phase's duration is its self time,
// since phases tile the op span without nesting.
//
// The recorder stamps a combining round's log reservation at the same
// instant as its fills, right after the reservation returns, so the
// reservation (including any wait for a full log to drain) lies inside
// the pickup → fill interval. log-reserve reports that interval once per
// combining round, keyed by the round's shared fill stamp on its node;
// combiner-pickup reports it once per op.
func nrPhases(body []byte) (map[string][]int64, error) {
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, err
	}
	type op struct {
		class  string
		pid    int
		phases map[string]chromeEvent
	}
	ops := map[string]*op{}
	get := func(tok string) *op {
		o := ops[tok]
		if o == nil {
			o = &op{phases: map[string]chromeEvent{}}
			ops[tok] = o
		}
		return o
	}
	for _, e := range tr.TraceEvents {
		tok, _ := e.Args["token"].(string)
		if e.Ph != "X" || tok == "" {
			continue
		}
		if class, _, ok := strings.Cut(e.Name, " op seq="); ok {
			o := get(tok)
			o.class, o.pid = class, e.Pid
			continue
		}
		get(tok).phases[e.Name] = e
	}
	samples := map[string][]int64{}
	type roundKey struct {
		pid  int
		fill int64
	}
	rounds := map[roundKey]int64{}
	for _, o := range ops {
		names, ok := classPhases[o.class]
		if !ok {
			continue // still in flight when the snapshot was taken
		}
		for _, name := range names {
			samples[name] = append(samples[name], ns(o.phases[name].Dur))
		}
		if o.class != "update" {
			continue
		}
		if fill, ok := o.phases["log-fill"]; ok {
			rounds[roundKey{o.pid, ns(fill.Ts)}] = ns(o.phases["combiner-pickup"].Dur)
		}
	}
	for _, d := range rounds {
		samples["log-reserve"] = append(samples["log-reserve"], d)
	}
	return samples, nil
}
