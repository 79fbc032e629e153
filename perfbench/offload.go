package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// The offload layer run: open-loop split offload. 24 phones in three
// cohorts of 8 each hold an OffloadSession on one CloudTier: a float32
// boundary, a native-int8 (QAB1) boundary, and a watermarked float32 copy
// whose suffix runs in the cloud enclave. The cut is pinned with
// replanning off. A single generator goroutine releases Poisson arrivals at
// a fixed rate to the target device's goroutine; latency counts from the
// due time. It yields the offload and enclave per-layer metrics only: no
// workload reports its end-to-end figures, because on a shared 2-vCPU host
// its tail latency and knee moved by more than any usable bound from one
// set of runs to the next.
const (
	offloadModel      = "offload-mlp"
	offloadCohortSize = 8
	offloadFeatures   = 32
	offloadClasses    = 8
	offloadCut        = 2
	offloadCheckEvery = 32 // one query in offloadCheckEvery is compared with ReferenceLogits
	// offloadRate is the arrival rate in queries per second, below the
	// knee even while the host stalls: on a 2-core host the knee ranged
	// from 8k to 28k queries/s between runs.
	offloadRate = 5000
	// offloadDeviceQueue is each device goroutine's inbox: it holds a
	// backlog without blocking the generator.
	offloadDeviceQueue = 1 << 14
)

type offloadCohort int

const (
	cohortFloat offloadCohort = iota
	cohortQAB
	cohortEnclave
	numCohorts
)

func (c offloadCohort) String() string {
	return [...]string{"float", "qab", "enclave"}[c]
}

// offloadFixture is the workload's input: the model, the same for every
// seed, and a query pool drawn from the seed.
type offloadFixture struct {
	net  *nn.Network
	eval *dataset.Dataset
	rows [][]float32
}

func newOffloadFixture(seed uint64) *offloadFixture {
	rng := tensor.NewRNG(0x0ff1)
	net := nn.NewNetwork([]int{offloadFeatures},
		nn.NewDense(offloadFeatures, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 64, rng), nn.NewTanh(),
		nn.NewDense(64, offloadClasses, rng))
	eval := dataset.Blobs(rng, 256, offloadFeatures, offloadClasses, 2)
	qrng := tensor.NewRNG(seed)
	rows := make([][]float32, 2048)
	for i := range rows {
		rows[i] = make([]float32, offloadFeatures)
		for j := range rows[i] {
			rows[i][j] = qrng.NormFloat32()
		}
	}
	return &offloadFixture{net: net, eval: eval, rows: rows}
}

// offloadEnv is one provisioned platform with its cloud tier and sessions.
type offloadEnv struct {
	cloud    *offload.CloudTier
	sessions []*core.OffloadSession
	cohort   []offloadCohort
	// batchTracer, when set, receives a span per dispatched cloud batch.
	batchTracer atomic.Pointer[tracer]
}

func (e *offloadEnv) close() { e.cloud.Close() }

func setupOffload(fx *offloadFixture, opts options) (*offloadEnv, error) {
	size := offloadCohortSize
	if opts.smoke {
		size = 2
	}
	caps, err := device.ProfileByName("phone")
	if err != nil {
		return nil, err
	}
	fleet := device.NewFleet()
	env := &offloadEnv{}
	var ids [numCohorts][]string
	for i := 0; i < int(numCohorts)*size; i++ {
		c := offloadCohort(i / size)
		d := device.NewDevice(fmt.Sprintf("phone-%s-%02d", c, i%size), caps, tensor.NewRNG(opts.seed+uint64(i)))
		d.SetNet(device.WiFi)
		if err := fleet.Add(d); err != nil {
			return nil, err
		}
		ids[c] = append(ids[c], d.ID)
	}
	p, err := core.New(fleet, core.Config{VendorKey: vendorKey, Seed: opts.seed, MinCohort: 1, Workers: opts.procs})
	if err != nil {
		return nil, err
	}
	if _, err := p.Publish(offloadModel, fx.net.Clone(), fx.eval, registry.OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8}, PruneFractions: []float64{0},
	}); err != nil {
		return nil, err
	}
	pin := func(s quant.Scheme) selector.Policy {
		pol := selector.DefaultPolicy()
		pol.Schemes = []quant.Scheme{s}
		return pol
	}
	cfgs := [numCohorts]core.DeployConfig{
		cohortFloat:   {Policy: pin(quant.Float32)},
		cohortQAB:     {Policy: pin(quant.Int8)},
		cohortEnclave: {Policy: pin(quant.Float32), Watermark: "perfbench-customer"},
	}
	for c := range cfgs {
		cfgs[c].PrepaidQueries = 1 << 40
		if _, err := p.DeployMany(ids[c], offloadModel, cfgs[c]); err != nil {
			return nil, err
		}
	}
	ccfg := offload.CloudConfig{Dispatchers: opts.procs, MaxBatch: 16, QueueCap: 256}
	if opts.trace {
		ccfg.TraceBatch = func(string, int, []string) {
			if tr := env.batchTracer.Load(); tr != nil {
				tr.mark("offload.CloudTier.batch")
			}
		}
	}
	env.cloud = offload.NewCloud(ccfg)
	plan := market.SplitPlan{Cut: offloadCut}
	for c := range ids {
		for _, id := range ids[c] {
			s, err := p.Offload(id, core.OffloadConfig{
				Cloud: env.cloud, Plan: &plan, Replan: offload.ReplanConfig{Disabled: true},
			})
			if err != nil {
				env.cloud.Close()
				return nil, err
			}
			env.sessions = append(env.sessions, s)
			env.cohort = append(env.cohort, offloadCohort(c))
		}
	}
	return env, nil
}

// offloadJob is one released query.
type offloadJob struct {
	due   time.Time
	row   int
	check bool
}

// offloadCheck is a sampled answer verified after the stretch.
type offloadCheck struct {
	row    int
	logits []float32
}

// deviceStats accumulates one device goroutine's measurements.
type deviceStats struct {
	*outcome
	wait, exec *hist
	modelLat   time.Duration
	split      int64
	checks     []offloadCheck
}

// rateResult is the merged measurements of one stretch at a fixed rate.
type rateResult struct {
	wait, genLate       *hist
	exec                [numCohorts]*hist
	split               [numCohorts]int64
	modelLat, execTotal time.Duration
}

// runRate releases Poisson arrivals at rate for seconds and waits for
// every query to finish. Failed operations and output checks go to out.
func runRate(env *offloadEnv, fx *offloadFixture, rate, seconds float64, seed uint64, tr *tracer, out *outcome) *rateResult {
	n := len(env.sessions)
	inbox := make([]chan offloadJob, n)
	stats := make([]*deviceStats, n)
	var wg sync.WaitGroup
	for i := range env.sessions {
		inbox[i] = make(chan offloadJob, offloadDeviceQueue)
		st := &deviceStats{outcome: newOutcome(), wait: newHist(), exec: newHist()}
		stats[i] = st
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serveDevice(env.sessions[i], fx, inbox[i], st, tr)
		}(i)
	}

	rng := tensor.NewRNG(seed)
	genLate := newHist()
	t0 := time.Now().Add(time.Millisecond)
	span := time.Duration(seconds * float64(time.Second))
	due := t0
	for {
		due = due.Add(time.Duration(rng.Exp() / rate * float64(time.Second)))
		if due.Sub(t0) >= span {
			break
		}
		job := offloadJob{due: due, row: rng.Intn(len(fx.rows)), check: rng.Intn(offloadCheckEvery) == 0}
		dev := rng.Intn(n)
		waitUntil(due)
		genLate.addDur(time.Since(due))
		inbox[dev] <- job
	}
	for _, ch := range inbox {
		close(ch)
	}
	wg.Wait()

	r := &rateResult{wait: newHist(), genLate: genLate}
	for c := range r.exec {
		r.exec[c] = newHist()
	}
	for i, st := range stats {
		out.absorb(st.outcome)
		r.wait.merge(st.wait)
		r.exec[env.cohort[i]].merge(st.exec)
		r.split[env.cohort[i]] += st.split
		r.modelLat += st.modelLat
		r.execTotal += time.Duration(st.exec.sum)
		dep := env.sessions[i].Deployment()
		for _, ck := range st.checks {
			if !bitsEqual(dep.ReferenceLogits(fx.rows[ck.row]), ck.logits) {
				out.fail("split logits on %s differ from ReferenceLogits", dep.DeviceID)
			}
		}
	}
	return r
}

// waitUntil returns at or just after t. Timer sleeps wake up to about a
// millisecond late on common Linux hosts, so it sleeps only while t is
// further off than that and yields the processor for the last stretch:
// other goroutines run whenever they are runnable, and releases are not
// held back by timer granularity.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// serveDevice is one simulated device: it runs its released queries in
// order through the offload session.
func serveDevice(s *core.OffloadSession, fx *offloadFixture, inbox <-chan offloadJob, st *deviceStats, tr *tracer) {
	for job := range inbox {
		st.attempted++
		x := fx.rows[job.row]
		var req int64
		var sp spanRef
		start := time.Now()
		if tr != nil {
			req = tr.request()
			w := tr.beginAt("offload.wait", 0, req, job.due)
			tr.end(w)
			sp = tr.begin("core.OffloadSession.Infer", 0, req)
		}
		res, err := s.Infer(x)
		end := time.Now()
		if tr != nil {
			tr.end(sp)
		}
		switch {
		case err != nil:
			st.fail("offload on %s: %v", s.Deployment().DeviceID, err)
		case res.Split.Mode != offload.ModeSplit:
			st.fail("offload on %s ran as %v, want split", s.Deployment().DeviceID, res.Split.Mode)
		default:
			st.split++
			st.modelLat += res.Split.Latency
			if job.check {
				st.checks = append(st.checks, offloadCheck{row: job.row, logits: append([]float32(nil), res.Split.Logits...)})
			}
		}
		st.wait.addDur(start.Sub(job.due))
		st.exec.addDur(end.Sub(start))
	}
}

// offloadCounters snapshots the session and cloud counters.
type offloadCounters struct {
	sess  offload.Stats
	cloud offload.CloudStats
}

func readCounters(env *offloadEnv) offloadCounters {
	var c offloadCounters
	for _, s := range env.sessions {
		st := s.Stats()
		c.sess.Queries += st.Queries
		c.sess.Split += st.Split
		c.sess.Fallbacks += st.Fallbacks
		c.sess.ShedRetries += st.ShedRetries
		c.sess.ActivationBytes += st.ActivationBytes
	}
	c.cloud = env.cloud.Stats()
	return c
}

// runOffload runs the offload layer run: a warm-up, then the traced
// stretch. It reports only the offload per-layer metrics; the traced run
// of a workload adds them to its own.
func runOffload(opts options, tr *tracer) (*outcome, error) {
	fx := newOffloadFixture(opts.seed)
	env, err := setupOffload(fx, opts)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := newOutcome()
	rate := float64(offloadRate)
	if opts.smoke {
		rate = 500
	}
	// Warm-up: fills the cloud's batch classes and the codec scratch.
	runRate(env, fx, rate, opts.seconds*0.1, opts.seed+1, nil, out)
	before := readCounters(env)
	env.batchTracer.Store(tr)
	r := runRate(env, fx, rate, opts.seconds, opts.seed+2, tr, out)
	env.batchTracer.Store(nil)
	after := readCounters(env)
	checkCohorts(r, out)
	L := out.layer
	L.set("offload.wait_us", r.wait.mean()/1e3, "us")
	all := newHist()
	for _, h := range r.exec {
		all.merge(h)
	}
	L.set("offload.exec_us", all.mean()/1e3, "us")
	L.set("offload.float_us", r.exec[cohortFloat].mean()/1e3, "us")
	L.set("offload.qab_us", r.exec[cohortQAB].mean()/1e3, "us")
	L.set("offload.enclave_us", r.exec[cohortEnclave].mean()/1e3, "us")
	queries := float64(after.sess.Queries - before.sess.Queries)
	split := float64(after.sess.Split - before.sess.Split)
	L.set("offload.split_frac", ratio(split, queries), "ratio")
	L.set("offload.fallbacks", float64(after.sess.Fallbacks-before.sess.Fallbacks), "count")
	L.set("offload.shed_retries", float64(after.sess.ShedRetries-before.sess.ShedRetries), "count")
	batches := float64(after.cloud.Batches - before.cloud.Batches)
	L.set("offload.batches", batches, "count")
	L.set("offload.batch_mean", ratio(float64(after.cloud.Served-before.cloud.Served), batches), "queries")
	L.set("offload.batch_max", float64(after.cloud.MaxBatchSize), "queries")
	L.set("offload.queue_max", float64(after.cloud.MaxQueueDepth), "queries")
	L.set("offload.act_bytes_per_q", ratio(float64(after.sess.ActivationBytes-before.sess.ActivationBytes), split), "B")
	L.set("offload.gen_late_p99_us", r.genLate.quantile(0.99)/1e3, "us")
	L.set("offload.model_ratio", ratio(float64(r.modelLat), float64(r.execTotal)), "ratio")
	out.samples["offload_traced"] = r.wait.n
	return out, nil
}

// checkCohorts requires every cloud class to have served split queries.
func checkCohorts(r *rateResult, out *outcome) {
	for c := offloadCohort(0); c < numCohorts; c++ {
		if r.split[c] == 0 {
			out.problems = append(out.problems, fmt.Sprintf("cloud class %v served no split query", c))
		}
	}
}
