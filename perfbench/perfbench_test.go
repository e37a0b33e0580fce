package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// small shrinks a workload to a few steps on small datasets, keeping its
// model, codec and tier.
func small(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := lookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *sp
	c.steps, c.warmup, c.train, c.test = 4, 1, 64, 32
	return &c
}

// declared reads the metric names BENCHMARK.json promises for one mode.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(cfg[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(ms map[string]Metric) []string {
	var names []string
	for name, m := range ms {
		names = append(names, name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}

// TestSmoke runs every workload for a few steps, untraced and traced
// (which includes the in-process oracle), and checks that each mode
// reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			b := &bench{sp: small(t, s.name), seed: 7, traced: traced}
			rec, err := b.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if b.failed != 0 || b.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d steps failed", s.name, traced, b.failed, b.attempted)
			}
			for name, m := range rec.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", s.name, traced, name, m.Value)
				}
			}
			if traced {
				sameNames(t, reported(rec.Metrics), layers)
			} else {
				sameNames(t, reported(rec.Metrics), e2e)
			}
		}
	}
}

// TestDeterministicCounts: two runs with one seed agree exactly on the
// counts a seed fixes; another seed changes them.
func TestDeterministicCounts(t *testing.T) {
	exact := []string{"wire_bytes_per_step", "compression_ratio", "test_accuracy", "final_loss", "train_loss_mean"}
	run := func(seed uint64) map[string]Metric {
		b := &bench{sp: small(t, "mlp-3lc"), seed: seed}
		rec, err := b.run()
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range rec.Info {
			rec.Metrics[name] = m
		}
		return rec.Metrics
	}
	a, b, c := run(3), run(3), run(4)
	for _, name := range exact {
		if a[name].Value != b[name].Value {
			t.Errorf("%s: %v then %v with the same seed", name, a[name].Value, b[name].Value)
		}
	}
	if a["wire_bytes_per_step"] == c["wire_bytes_per_step"] && a["train_loss_mean"] == c["train_loss_mean"] {
		t.Errorf("seeds 3 and 4 gave identical runs; the seed is not reaching the inputs")
	}
}

// TestSelfTimes: a span's self time is its duration minus the union of
// its children's intervals clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 50}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.child", Start: 12, End: 15},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "other-root", Start: 0, End: 7},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 3, 3: 25, 4: 3, 5: 30, 6: 7}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}
