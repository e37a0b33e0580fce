// Command perfbench is the repository's end-to-end benchmark: it trains
// real models over loopback TCP through the public APIs (data →
// nn.Model.TrainStep → ps.Worker.CompressGrads → transport PushPull →
// ps.Worker.ApplyPull, against a transport.Server or MuxShardServer in
// the same process), checks that the results are correct, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload mlp-3lc --seed 1 --seconds 10 --trace 0
//	perfbench compare old-record.json new-record.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics from spans recorded around every layer call, replays the seed
// against the single in-process parameter server, and demands
// bit-identical final weights. Run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// minSetups is the fewest set-ups a run times: trials that train plus,
// where those are fewer, set-ups torn down before step 0. setup_s is
// their median.
const minSetups = 9

// blockSteps is how many consecutive BSP steps one timing block spans:
// at least 100 worker steps, so that a block's p90 has ten samples above
// it.
const blockSteps = 50

// runLimit aborts a run that has not finished: a wedged barrier must end
// as a failed run, not a hang.
const runLimit = 170 * time.Second

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a result with everything needed to compare it with another:
// the host it ran on, the workload and seed, and sample counts.
type Record struct {
	Host        Host               `json:"host"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Trials      int                `json:"trials"`
	Blocks      int                `json:"blocks"`
	StepSamples int                `json:"step_samples"`
	Metrics     map[string]Metric  `json:"metrics"`
	Info        map[string]Metric  `json:"info,omitempty"`
	BlockP50Ms  []float64          `json:"block_p50_ms,omitempty"`
	SelfTimeMs  map[string]float64 `json:"self_time_ms,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: mlp-3lc | resnet-3lc | mlp-f32-tenants")
	seed := flag.Uint64("seed", 1, "workload seed: model initialization and batch sampling")
	seconds := flag.Int("seconds", 10, "how long to keep starting trials")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for record and trace files")
	flag.Parse()

	sp, err := lookupSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		emit(Result{Metrics: map[string]Metric{}, Attempted: 1, Failed: 1})
		os.Exit(1)
	})
	b := &bench{sp: sp, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	rec, err := b.run()
	if err == nil {
		for name, m := range rec.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				err = fmt.Errorf("metric %s is %v", name, m.Value)
			}
		}
	}
	res := Result{Correct: err == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]Metric{}}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that failed before its first step still attempted one
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		emit(res)
		os.Exit(1)
	}
	if b.traced {
		if rec.TraceFile, err = b.trace.writeFile(*out, fmt.Sprintf("trace-%s-seed%d.json", sp.name, *seed), rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printRecord(rec)
	res.Metrics = rec.Metrics
	emit(res)
}

func emit(r Result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Result of plain numbers always marshals
	}
	fmt.Println(string(b))
}

// bench is one run of one workload.
type bench struct {
	sp     *spec
	seed   uint64
	budget time.Duration
	traced bool
	trace  *Trace

	attempted, failed int
	finals            [][]float32 // first trial's final global parameters
	fingerprint       uint64
	acc, testLoss     float64
	trainLoss         float64
	setups            []float64 // seconds
	blockP50s         []float64
	wireBytes         int64 // first trial's timed socket bytes
}

// run repeats trials until the time budget is spent, checking each, and
// returns the record. A traced run alternates untraced and traced
// trials, so its tracing overhead compares neighbours.
func (b *bench) run() (*Record, error) {
	start := time.Now()
	var plain, traced []*trial
	if b.traced {
		b.trace = newTrace()
	}
	for i := 0; ; i++ {
		var tr *Trace
		if b.traced && i%2 == 1 {
			tr = b.trace
		}
		// Every trial starts from a collected heap, so its set-up time and
		// heap peak do not depend on the garbage of the trial before it.
		runtime.GC()
		t, err := b.sp.runTrial(b.seed, tr, false)
		if t != nil {
			for _, w := range t.workers {
				b.attempted += w.attempted
				if w.err != nil {
					b.failed++
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		if err := b.verify(t, i); err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		t.release()
		if tr == nil {
			plain = append(plain, t)
		} else {
			traced = append(traced, t)
		}
		b.setups = append(b.setups, t.setup.Seconds())
		if len(plain) > 0 && (len(traced) > 0 || !b.traced) && time.Since(start) >= b.budget {
			break
		}
	}
	for len(b.setups) < minSetups {
		t, err := b.sp.runTrial(b.seed, nil, true)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, t.setup.Seconds())
	}
	rec := &Record{Host: hostInfo(), Workload: b.sp.name, Seed: b.seed, Trace: b.traced}
	if !b.traced {
		rec.Trials = len(plain)
		rec.Metrics, rec.Blocks, rec.StepSamples = b.endToEnd(plain)
		rec.BlockP50Ms = b.blockP50s
		rec.Info = map[string]Metric{
			"final_loss":      {b.testLoss, "nats"},
			"train_loss_mean": {b.trainLoss, "nats"},
		}
		return rec, nil
	}
	// The oracle: the same seed trained in-process against ps.Job, each
	// tenant alone, must end on bit-identical global weights.
	for t, want := range b.sp.replay(b.seed) {
		if !sameBits(want, b.finals[t]) {
			return nil, fmt.Errorf("tenant %d: final global weights differ from the in-process ps.Job replay", t)
		}
	}
	rec.Trials = len(traced)
	rec.Metrics, rec.SelfTimeMs, rec.StepSamples = b.perLayer(traced, plain)
	return rec, nil
}

// verify applies the per-trial checks, and demands that every trial
// reproduce the first one exactly: same final weights, same wire bytes.
func (b *bench) verify(t *trial, i int) error {
	if err := t.check(); err != nil {
		return err
	}
	fp := t.fingerprint()
	var wire int64
	for _, w := range t.workers {
		wire += w.wireBytes
	}
	if i == 0 {
		b.acc, b.testLoss = t.evaluate(b.sp.nchw)
		if math.IsNaN(b.testLoss) || math.IsInf(b.testLoss, 0) {
			return fmt.Errorf("test loss %v", b.testLoss)
		}
		b.trainLoss, b.fingerprint, b.wireBytes = t.meanLoss(), fp, wire
		for _, j := range t.jobs {
			b.finals = append(b.finals, flatParams(j.global))
		}
		return nil
	}
	if fp != b.fingerprint {
		return errors.New("final global weights differ from the first trial with the same seed")
	}
	if wire != b.wireBytes {
		return fmt.Errorf("timed socket bytes %d differ from the first trial's %d", wire, b.wireBytes)
	}
	return nil
}

func (b *bench) numParams() int { return len(b.finals[0]) }

// blockStats summarises a run's step times over blocks of blockSteps
// consecutive BSP steps of one trial, pooled over its workers: each
// statistic is its median over the blocks. Other tenants of a shared host
// slow it down, or free capacity that speeds it up, for seconds at a
// time; the median over blocks ignores any minority of disturbed blocks,
// in either direction, where a pool of all steps would absorb them.
type blockStats struct {
	p50, p90    float64 // ms
	samplesPerS float64
	samples     int       // worker steps per block
	p50s        []float64 // every block's p50, in run order
}

func (b *bench) blockStats(trials []*trial) blockStats {
	var st blockStats
	var p90s, rates []float64
	for _, t := range trials {
		size := min(blockSteps, len(t.workers[0].steps)) // a shorter trial is one block
		for lo := 0; size > 0 && lo+size <= len(t.workers[0].steps); lo += size {
			var ms []float64
			first, last := int64(math.MaxInt64), int64(0)
			for _, w := range t.workers {
				for _, s := range w.steps[lo : lo+size] {
					ms = append(ms, float64(s[1]-s[0])/1e6)
					first, last = min(first, s[0]), max(last, s[1])
				}
			}
			sort.Float64s(ms)
			st.p50s = append(st.p50s, percentile(ms, 0.5))
			p90s = append(p90s, percentile(ms, 0.9))
			rates = append(rates, float64(len(ms)*b.sp.batch)/(float64(last-first)/1e9))
			st.samples = len(ms)
		}
	}
	st.p50, st.p90, st.samplesPerS = median(st.p50s), median(p90s), median(rates)
	return st
}

func (b *bench) endToEnd(trials []*trial) (map[string]Metric, int, int) {
	steps := b.blockStats(trials)
	var mallocs uint64
	var peaks []float64
	timed := 0
	for _, t := range trials {
		mallocs += t.mallocs
		peaks = append(peaks, float64(t.peakHeap)/(1<<20))
		for _, w := range t.workers {
			timed += len(w.steps)
		}
	}
	perStep := float64(b.wireBytes) / float64(len(trials[0].workers)*(b.sp.steps-b.sp.warmup))
	raw := 2 * 4 * float64(b.numParams())
	m := map[string]Metric{
		"step_ms_p50":         {steps.p50, "ms"},
		"step_ms_p90":         {steps.p90, "ms"},
		"samples_per_s":       {steps.samplesPerS, "1/s"},
		"wire_bytes_per_step": {perStep, "bytes"},
		"compression_ratio":   {raw / perStep, "x"},
		"test_accuracy":       {b.acc, "fraction"},
		"allocs_per_step":     {float64(mallocs) / float64(timed), "count"},
		"peak_heap_mb":        {median(peaks), "MiB"},
		"setup_s":             {median(b.setups), "s"},
		"step_success_pct":    {100 * float64(b.attempted-b.failed) / float64(b.attempted), "%"},
	}
	b.blockP50s = steps.p50s
	return m, len(steps.p50s), steps.samples
}

// layerSpans are the worker-step spans, in the order a step runs them.
var layerSpans = []string{"data.batch", "nn.train_step", "ps.compress_grads", "transport.push_pull", "transport.conn_write", "ps.apply_pull"}

// perLayer turns the traced trials' spans into per-step layer metrics.
// Worker-side values are per worker step; server-side values are per
// server step. plain are the untraced trials the overhead compares
// against.
func (b *bench) perLayer(traced, plain []*trial) (map[string]Metric, map[string]float64, int) {
	tracedSteps, plainSteps := b.blockStats(traced), b.blockStats(plain)
	spans := b.trace.Spans()
	self := SelfTimes(spans)
	selfSum := map[string]float64{}
	durSum := map[string]float64{}
	count := map[string]int{}
	for _, s := range spans {
		if s.Key.Step < b.sp.warmup {
			continue
		}
		selfSum[s.Name] += float64(self[s.ID]) / 1e6
		durSum[s.Name] += float64(s.End-s.Start) / 1e6
		count[s.Name]++
	}
	workerSteps := float64(count["step"])
	serverSteps := float64(max(count["ps.begin_step"], 1))
	perW := func(v float64) float64 { return v / workerSteps }

	var reads, writes, push, pull int64
	var waitNs int64
	var retries uint64
	for _, t := range traced {
		for _, w := range t.workers {
			reads += w.reads
			writes += w.writes
			push += w.pushBytes
			pull += w.pullBytes
		}
		waitNs += t.queueWaitNs
		retries += t.retries
	}
	// The server's share of a step: the flat server's StepServer calls,
	// or on the multi-tenant tier the socket gap between the last push
	// byte read and the first pull byte written.
	serverMs := (durSum["ps.begin_step"] + durSum["ps.add_push"] + durSum["ps.finish_step"]) / serverSteps
	if b.sp.tenants > 0 {
		serverMs = durSum["transport.server_gap"] / float64(max(count["transport.server_gap"], 1))
	}
	bitsPerElem := func(bytes int64) float64 { return 8 * float64(bytes) / (workerSteps * float64(b.numParams())) }
	m := map[string]Metric{
		"data.batch_ms":             {perW(selfSum["data.batch"]), "ms"},
		"nn.train_step_ms":          {perW(selfSum["nn.train_step"]), "ms"},
		"ps.compress_grads_ms":      {perW(selfSum["ps.compress_grads"]), "ms"},
		"ps.apply_pull_ms":          {perW(selfSum["ps.apply_pull"]), "ms"},
		"ps.begin_step_ms":          {durSum["ps.begin_step"] / serverSteps, "ms"},
		"ps.add_push_ms":            {durSum["ps.add_push"] / serverSteps, "ms"},
		"ps.pull_encode_ms":         {durSum["ps.pull_encode"] / serverSteps, "ms"},
		"opt.sweep_ms":              {durSum["opt.sweep"] / serverSteps, "ms"},
		"ps.push_bits_per_elem":     {bitsPerElem(push), "bits"},
		"ps.pull_bits_per_elem":     {bitsPerElem(pull), "bits"},
		"transport.push_pull_ms":    {perW(durSum["transport.push_pull"]), "ms"},
		"transport.barrier_wait_ms": {perW(durSum["transport.push_pull"]) - serverMs, "ms"},
		"transport.conn_write_ms":   {perW(durSum["transport.conn_write"]), "ms"},
		"transport.writes_per_step": {perW(float64(writes)), "count"},
		"transport.reads_per_step":  {perW(float64(reads)), "count"},
		"tenant.queue_wait_ms":      {perW(float64(waitNs) / 1e6), "ms"},
		"tenant.retries_per_step":   {perW(float64(retries)), "count"},
		"trace.step_ms":             {perW(durSum["step"]), "ms"},
		"trace.remainder_ms":        {perW(selfSum["step"]), "ms"},
		"trace.overhead_ms":         {tracedSteps.p50 - plainSteps.p50, "ms"},
	}
	selfMs := map[string]float64{"remainder": perW(selfSum["step"])}
	for _, name := range layerSpans {
		selfMs[name] = perW(selfSum[name])
	}
	return m, selfMs, int(workerSteps)
}

func writeRecord(dir string, rec *Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("record-%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func printRecord(rec *Record) {
	h := rec.Host
	fmt.Printf("perfbench workload=%s seed=%d trace=%v trials=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Trials)
	if !rec.Trace {
		fmt.Printf("step times: median over %d blocks of %d BSP steps, %d worker steps each\n", rec.Blocks, blockSteps, rec.StepSamples)
	} else {
		fmt.Printf("per-layer values: means over %d timed worker steps\n", rec.StepSamples)
	}
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d kernel_tier=%s go=%s goamd64=%s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.KernelTier, h.GoVersion, h.GOAMD64)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	for _, name := range []string{"final_loss", "train_loss_mean"} {
		if m, ok := rec.Info[name]; ok {
			fmt.Printf("  %-28s %14.4f %s (not bounded: spreads across seeds)\n", name, m.Value, m.Unit)
		}
	}
	if rec.SelfTimeMs == nil {
		return
	}
	fmt.Println("worker step self time (ms per step):")
	total := 0.0
	for _, name := range append(append([]string(nil), layerSpans...), "remainder") {
		v := rec.SelfTimeMs[name]
		total += v
		fmt.Printf("  %-28s %10.4f\n", name, v)
	}
	fmt.Printf("  %-28s %10.4f (traced step wall %.4f)\n", "sum", total, rec.Metrics["trace.step_ms"].Value)
	if rec.TraceFile != "" {
		fmt.Println("spans written to", rec.TraceFile)
	}
}

// compare prints new/old for every metric two records share. Records
// from different hosts are not comparable and are refused.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.json NEW.json")
	}
	var recs [2]Record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	old, cur := recs[0], recs[1]
	if old.Host != cur.Host {
		return fmt.Errorf("records come from different hosts:\n  %+v\n  %+v", old.Host, cur.Host)
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("records measure different things: %s/trace=%v vs %s/trace=%v",
			old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		if _, ok := old.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, c := old.Metrics[name].Value, cur.Metrics[name].Value
		ratio := math.NaN()
		if o != 0 {
			ratio = c / o
		}
		fmt.Printf("%-28s %14.4f -> %14.4f %-8s x%.3f\n", name, o, c, cur.Metrics[name].Unit, ratio)
	}
	return nil
}
