package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tenant"
	"threelc/internal/tensor"
	"threelc/internal/transport"
)

// spec is one workload: a closed-loop BSP training job (or several
// tenant jobs) run over loopback TCP from one process. Every trial
// trains the same fixed number of steps from the same seed, so each
// trial computes bit-identical results and a run repeats trials until
// its time is up.
type spec struct {
	name string
	// tenants 0 runs one job on a flat transport.Server over a ps.Job;
	// n > 0 runs n tenant jobs on one MuxShardServer shard backed by
	// shard.Service and tenant.Registry.
	tenants     int
	workers     int // per job
	batch       int // per worker
	nchw        bool
	scheme      compress.Scheme
	opts        compress.Options
	parallelism int // ps.Config.Parallelism; 0 is GOMAXPROCS
	steps       int // per trial
	warmup      int // leading steps of a trial left out of the timed metrics
	train, test int // dataset sizes
	noise       float64
	build       func(seed uint64) *nn.Model
}

func mlp(seed uint64) *nn.Model { return nn.NewMLP(768, []int{1024, 512}, 10, seed) }

func microResNet(seed uint64) *nn.Model {
	cfg := nn.DefaultMicroResNet()
	cfg.Seed = seed
	return nn.NewMicroResNet(cfg)
}

var threeLC = compress.Options{Sparsity: 1.75, ZeroRun: true}

// specs are the benchmark's workloads. README.md gives the reason for
// each and the layer metrics each is predicted to move.
var specs = []*spec{
	{name: "mlp-3lc", workers: 2, batch: 4, scheme: compress.SchemeThreeLC, opts: threeLC,
		steps: 165, warmup: 15, train: 2000, test: 250, noise: 0.5, build: mlp},
	{name: "resnet-3lc", workers: 2, batch: 8, nchw: true, scheme: compress.SchemeThreeLC, opts: threeLC,
		steps: 165, warmup: 15, train: 2000, test: 250, noise: 0.3, build: microResNet},
	{name: "mlp-f32-tenants", tenants: 2, workers: 1, batch: 4, scheme: compress.SchemeNone, parallelism: 1,
		steps: 165, warmup: 15, train: 2000, test: 250, noise: 0.5, build: mlp},
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// datasetSeed fixes each workload's dataset, as a real benchmark fixes
// its dataset: the workload seed varies initialisation and which
// examples each worker draws, in what order. Datasets that vary with the
// seed move 3LC's wire size by a quarter from seed to seed, which no
// bound on wire_bytes_per_step could absorb.
const datasetSeed = 42

// mix derives independent seeds for data, init and batch sampling from
// the workload seed (splitmix64 finalizer).
func mix(seed uint64, salt ...uint64) uint64 {
	z := seed
	for _, s := range salt {
		z += 0x9e3779b97f4a7c15 * (s + 1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// job is one training job's inputs and global (server-side) model.
type job struct {
	tenant      int
	train, test *data.Dataset
	global      *nn.Model
	cfg         ps.Config
	ten         *tenant.Tenant // multi-tenant tier only
}

func (sp *spec) jobCount() int { return max(sp.tenants, 1) }

// newJob synthesizes job t's dataset and builds its global model.
func (sp *spec) newJob(seed uint64, t int) *job {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test, dcfg.NoiseStd = sp.train, sp.test, sp.noise
	dcfg.Seed = mix(datasetSeed, uint64(t))
	tr, te := data.Synthetic(dcfg)
	return &job{
		tenant: t,
		train:  tr,
		test:   te,
		global: sp.build(mix(seed, 2, uint64(t))),
		cfg: ps.Config{
			Scheme:      sp.scheme,
			Opts:        sp.opts,
			Workers:     sp.workers,
			Parallelism: sp.parallelism,
			Optimizer:   opt.TunedSGDConfig(sp.workers, sp.steps),
		},
	}
}

// sampler draws a worker's batches: its own RNG stream over the job's
// training set.
type sampler struct {
	ds   *data.Dataset
	rng  *tensor.RNG
	idx  []int
	nchw bool
}

func (sp *spec) newSampler(seed uint64, j *job, w int) *sampler {
	return &sampler{ds: j.train, rng: tensor.NewRNG(mix(seed, 3, uint64(j.tenant), uint64(w))),
		idx: make([]int, sp.batch), nchw: sp.nchw}
}

func (s *sampler) next() (*tensor.Tensor, []int) {
	for i := range s.idx {
		s.idx[i] = s.rng.Intn(s.ds.Len())
	}
	if s.nchw {
		return s.ds.Batch(s.idx, nil, nil)
	}
	return s.ds.FlatBatch(s.idx, nil, nil)
}

// pushPuller is the worker side of either tier's transport client.
type pushPuller interface {
	PushPull(step int, wires [][]byte) ([][]byte, error)
	Close() error
}

// worker is one training node of a trial.
type worker struct {
	job    *job
	id     int
	ps     *ps.Worker
	client pushPuller
	batch  *sampler
	warmup int
	st     connStats
	wt     *workerTrace // nil when untraced

	// Filled by loop.
	epoch                time.Time  // shared by a trial's workers
	steps                [][2]int64 // start and end of each timed step, ns since epoch
	losses               []float64
	wireBytes            int64 // socket bytes over the timed steps
	reads, writes        int64 // socket calls over the timed steps
	pushBytes, pullBytes int64 // ps wire-set bytes over the timed steps
	attempted            int
	err                  error
}

// trial is the outcome of one training run of a workload.
type trial struct {
	setup       time.Duration
	workers     []*worker
	jobs        []*job
	mallocs     uint64
	peakHeap    uint64
	queueWaitNs int64
	retries     uint64
}

const netTimeout = 60 * time.Second

// runTrial sets up the workload's tier and workers (timed as set-up),
// trains sp.steps BSP steps unless setupOnly, and tears everything
// down. tr, when non-nil, records spans around every layer call.
func (sp *spec) runTrial(seed uint64, tr *Trace, setupOnly bool) (*trial, error) {
	start := time.Now()
	out := &trial{}
	for t := 0; t < sp.jobCount(); t++ {
		out.jobs = append(out.jobs, sp.newJob(seed, t))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	to := transport.Timeouts{Read: netTimeout, Write: netTimeout}
	serveErr := make(chan error, 1)
	if sp.tenants == 0 {
		j := out.jobs[0]
		var srv transport.StepServer = ps.NewJob(j.global, j.cfg)
		if tr != nil {
			srv = &tracedStepServer{inner: srv, tr: tr, tenant: j.tenant, step: -1}
		}
		server := transport.NewServer(ln, srv, sp.workers, sp.steps)
		server.SetTimeouts(to)
		go func() { serveErr <- server.Serve() }()
	} else {
		svc := shard.NewService(shard.Config{Shards: 1}, tenant.NewRegistry(sp.tenants))
		defer svc.Close()
		for _, j := range out.jobs {
			h, err := svc.Admit(tenant.ID(j.tenant+1), j.global, j.cfg, tenant.Limits{})
			if err != nil {
				return nil, fmt.Errorf("admit tenant %d: %w", j.tenant, err)
			}
			j.ten = h.Tenant()
		}
		var l net.Listener = ln
		if tr != nil {
			l = &gapListener{Listener: ln, tr: tr}
		}
		mux := transport.NewMuxShardServer(l, svc, transport.MuxShardServerConfig{Tenants: sp.tenants, Timeouts: to})
		go func() { serveErr <- mux.Serve() }()
	}
	addr := ln.Addr().String()
	closeAll := func() {
		for _, w := range out.workers {
			if w.client != nil {
				w.client.Close()
			}
		}
	}
	for _, j := range out.jobs {
		for id := 0; id < sp.workers; id++ {
			m := sp.build(0)
			m.CopyParamsFrom(j.global)
			w := &worker{job: j, id: id, ps: ps.NewWorker(id, m, j.cfg), batch: sp.newSampler(seed, j, id), warmup: sp.warmup}
			if tr != nil {
				w.wt = &workerTrace{tr: tr}
			}
			out.workers = append(out.workers, w)
			d := dialer(&w.st, w.wt)
			if sp.tenants == 0 {
				w.client, err = transport.DialTimeoutDialer(addr, id, to, d)
			} else {
				w.client, err = transport.DialShardedConfig([]string{addr}, id, shard.ForModel(m, 1), transport.ShardClientConfig{
					Timeouts: to, Tenant: uint32(j.tenant + 1), Epoch: uint32(j.ten.Epoch), Dialer: d})
			}
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("dial: %w", err)
			}
		}
	}
	out.setup = time.Since(start)
	if setupOnly {
		// The servers see their workers hang up before step 0.
		closeAll()
		<-serveErr
		return out, nil
	}

	epoch := time.Now()
	for _, w := range out.workers {
		w.epoch = epoch
	}
	// Every worker stops after its warmup steps; the timed window opens
	// once all have, so window counters see only timed steps.
	var warm, done sync.WaitGroup
	release := make(chan struct{})
	warm.Add(len(out.workers))
	done.Add(len(out.workers))
	for _, w := range out.workers {
		go func(w *worker) {
			defer done.Done()
			w.loop(sp, tr, &warm, release)
		}(w)
	}
	warm.Wait()
	allocs0 := readAllocs()
	var wait0 int64
	var retries0 uint64
	for _, j := range out.jobs {
		if j.ten != nil {
			s := j.ten.Stats.Snapshot()
			wait0 += s.QueueWaitNs
			retries0 += s.Retries
		}
	}
	stopHeap := make(chan struct{})
	heapPeak := make(chan uint64)
	go sampleHeap(stopHeap, heapPeak)
	close(release)
	done.Wait()
	close(stopHeap)
	out.peakHeap = <-heapPeak
	out.mallocs = readAllocs() - allocs0
	for _, j := range out.jobs {
		if j.ten != nil {
			s := j.ten.Stats.Snapshot()
			out.queueWaitNs += s.QueueWaitNs
			out.retries += s.Retries
		}
	}
	out.queueWaitNs -= wait0
	out.retries -= retries0

	closeAll()
	var errs []error
	for _, w := range out.workers {
		if w.err != nil {
			errs = append(errs, fmt.Errorf("tenant %d worker %d: %w", w.job.tenant, w.id, w.err))
		}
	}
	if err := <-serveErr; err != nil {
		errs = append(errs, fmt.Errorf("server: %w", err))
	}
	return out, errors.Join(errs...)
}

// loop trains the worker's steps. It marks warm once its warmup steps
// are done and waits for release before the timed steps.
func (w *worker) loop(sp *spec, tr *Trace, warm *sync.WaitGroup, release <-chan struct{}) {
	warmed := false
	defer func() {
		if !warmed {
			warm.Done()
		}
	}()
	var bytes0, reads0, writes0 int64
	for s := 0; s < sp.steps; s++ {
		if s == sp.warmup {
			warmed = true
			warm.Done()
			<-release
			bytes0, reads0, writes0 = w.st.bytes.Load(), w.st.reads.Load(), w.st.writes.Load()
		}
		w.attempted++
		var err error
		if tr == nil {
			err = w.step(s)
		} else {
			err = w.tracedStep(s, tr)
		}
		if err != nil {
			w.err = fmt.Errorf("step %d: %w", s, err)
			// Closing the socket fails the step barrier for everyone
			// instead of leaving the other workers waiting on it.
			w.client.Close()
			return
		}
	}
	w.wireBytes = w.st.bytes.Load() - bytes0
	w.reads = w.st.reads.Load() - reads0
	w.writes = w.st.writes.Load() - writes0
}

// step is one untraced BSP step: batch draw to pull applied.
func (w *worker) step(s int) error {
	start := time.Since(w.epoch)
	x, labels := w.batch.next()
	loss := w.ps.Model.TrainStep(x, labels)
	wires, _ := w.ps.CompressGrads()
	push := ps.WireBytes(wires)
	pull, err := w.client.PushPull(s, wires)
	if err != nil {
		return err
	}
	if _, err := w.ps.ApplyPull(pull); err != nil {
		return err
	}
	w.finishStep(s, start, time.Since(w.epoch), loss, push, ps.WireBytes(pull))
	return nil
}

// tracedStep is step with a span around every layer call. Spans of the
// step share its key; the root "step" span's self time is whatever the
// layer spans do not cover.
func (w *worker) tracedStep(s int, tr *Trace) error {
	key := StepKey{Tenant: w.job.tenant, Worker: w.id, Step: s}
	w.wt.key.Store(&key)
	root := tr.reserve()
	start := time.Since(w.epoch)
	t0 := tr.now()
	x, labels := w.batch.next()
	t1 := tr.now()
	loss := w.ps.Model.TrainStep(x, labels)
	t2 := tr.now()
	wires, _ := w.ps.CompressGrads()
	t3 := tr.now()
	push := ps.WireBytes(wires)
	pp := tr.reserve()
	w.wt.pushPull.Store(pp)
	t4 := tr.now()
	pull, err := w.client.PushPull(s, wires)
	t5 := tr.now()
	w.wt.pushPull.Store(0)
	if err != nil {
		return err
	}
	if _, err := w.ps.ApplyPull(pull); err != nil {
		return err
	}
	t6 := tr.now()
	end := time.Since(w.epoch)
	tr.record(0, root, "data.batch", key, t0, t1)
	tr.record(0, root, "nn.train_step", key, t1, t2)
	tr.record(0, root, "ps.compress_grads", key, t2, t3)
	tr.record(pp, root, "transport.push_pull", key, t4, t5)
	tr.record(0, root, "ps.apply_pull", key, t5, t6)
	tr.record(root, 0, "step", key, t0, t6)
	w.finishStep(s, start, end, loss, push, ps.WireBytes(pull))
	return nil
}

func (w *worker) finishStep(s int, start, end time.Duration, loss float64, push, pull int) {
	w.losses = append(w.losses, loss)
	if s >= w.warmup {
		w.steps = append(w.steps, [2]int64{int64(start), int64(end)})
		w.pushBytes += int64(push)
		w.pullBytes += int64(pull)
	}
}

// release drops the trial's models, datasets and connections once it
// has been checked, keeping only its measurements, so that later trials'
// heap peaks do not include it.
func (t *trial) release() {
	t.jobs = nil
	for _, w := range t.workers {
		w.job, w.ps, w.client, w.batch, w.losses = nil, nil, nil, nil, nil
	}
}

// readAllocs returns the process's cumulative heap allocation count.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeap reports the largest heap-object byte count it sees, polling
// until stop closes.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var top uint64
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		top = max(top, s[0].Value.Uint64())
		select {
		case <-stop:
			peak <- top
			return
		case <-tick.C:
		}
	}
}

// check verifies what every trial must satisfy: every worker of a job
// holds bit-identical parameters and every training loss is finite.
func (t *trial) check() error {
	first := make(map[*job]*worker)
	for _, w := range t.workers {
		for i, l := range w.losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("tenant %d worker %d: loss %v at step %d", w.job.tenant, w.id, l, i)
			}
		}
		ref, ok := first[w.job]
		if !ok {
			first[w.job] = w
			continue
		}
		if !sameBits(flatParams(ref.ps.Model), flatParams(w.ps.Model)) {
			return fmt.Errorf("tenant %d: worker %d parameters differ from worker %d", w.job.tenant, w.id, ref.id)
		}
	}
	return nil
}

// fingerprint hashes every job's final global parameters.
func (t *trial) fingerprint() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, j := range t.jobs {
		for _, v := range flatParams(j.global) {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// evaluate returns the mean test accuracy and test loss of the jobs'
// final global models, with batch-norm statistics taken from worker 0.
func (t *trial) evaluate(nchw bool) (acc, loss float64) {
	for _, j := range t.jobs {
		for _, w := range t.workers {
			if w.job == j && w.id == 0 {
				nn.CopyBatchNormStats(j.global, w.ps.Model)
			}
		}
		idx := make([]int, j.test.Len())
		for i := range idx {
			idx[i] = i
		}
		var x *tensor.Tensor
		var labels []int
		if nchw {
			x, labels = j.test.Batch(idx, nil, nil)
		} else {
			x, labels = j.test.FlatBatch(idx, nil, nil)
		}
		loss += j.global.Loss.Forward(j.global.Net.Forward(x, false), labels)
		acc += j.global.Accuracy(x, labels)
	}
	n := float64(len(t.jobs))
	return acc / n, loss / n
}

// meanLoss is the training loss averaged over every step of every
// worker: how fast the fixed-length trial converged.
func (t *trial) meanLoss() float64 {
	sum, n := 0.0, 0
	for _, w := range t.workers {
		for _, l := range w.losses {
			sum += l
			n++
		}
	}
	return sum / float64(n)
}

// replay is the single in-process PS oracle: it trains each job alone
// against a ps.Job, with the same seeds, batches and configuration and
// no network, and returns each job's final global parameters.
func (sp *spec) replay(seed uint64) [][]float32 {
	var out [][]float32
	for t := 0; t < sp.jobCount(); t++ {
		j := sp.newJob(seed, t)
		srv := ps.NewJob(j.global, j.cfg)
		ws := make([]*ps.Worker, sp.workers)
		samplers := make([]*sampler, sp.workers)
		for w := range ws {
			m := sp.build(0)
			m.CopyParamsFrom(j.global)
			ws[w] = ps.NewWorker(w, m, j.cfg)
			samplers[w] = sp.newSampler(seed, j, w)
		}
		for s := 0; s < sp.steps; s++ {
			srv.BeginStep()
			for w, pw := range ws {
				x, labels := samplers[w].next()
				pw.Model.TrainStep(x, labels)
				wires, _ := pw.CompressGrads()
				if _, err := srv.AddPush(w, wires); err != nil {
					panic(fmt.Sprintf("oracle push: %v", err)) // in-process wires cannot be malformed
				}
			}
			pulls, _, err := srv.FinishStep()
			if err != nil {
				panic(fmt.Sprintf("oracle finish: %v", err))
			}
			for _, pw := range ws {
				if _, err := pw.ApplyPull(pulls); err != nil {
					panic(fmt.Sprintf("oracle pull: %v", err))
				}
			}
		}
		out = append(out, flatParams(j.global))
	}
	return out
}

func flatParams(m *nn.Model) []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.W.Data()...)
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
