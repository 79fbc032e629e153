package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// declaration mirrors the parts of BENCHMARK.json the smoke test checks.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every declared workload at minimal size, untraced and
// traced, and requires zero failed operations and that each result
// carries exactly the declared metrics of its kind (end-to-end untraced,
// per-layer traced) with the declared units. Every stage sum a traced run
// records must be positive.
func TestSmoke(t *testing.T) {
	d := loadDeclaration(t)
	units := func(ms []declaredMetric) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	e2e, layer := units(d.EndToEnd), units(d.PerLayer)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("declared workload %q has no runner", w.Name)
		}
		for _, traced := range []bool{false, true} {
			opts := options{seed: 7, seconds: 0.4, trace: traced, smoke: true, procs: runtime.GOMAXPROCS(0)}
			out, err := runWorkload(w.Name, opts, newTracer())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if out.failed != 0 || len(out.problems) != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d, problems %v", w.Name, traced, out.attempted, out.failed, out.problems)
			}
			got, want := out.e2e, e2e
			if traced {
				got, want = out.layer, layer
				for name, share := range out.closure {
					if !(share > 0) {
						t.Errorf("%s: stage sum %s has share %v", w.Name, name, share)
					}
				}
			}
			for name, m := range got {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %q is not declared", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %q is not emitted", w.Name, traced, name)
				}
			}
		}
	}
}
