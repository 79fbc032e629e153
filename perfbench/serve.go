package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// serve_settle: closed-loop metered serving with verified-billing
// settlement. procs clients each own a disjoint slice of a 60-device fleet
// (10 per standard profile); each call is Infer on one row (3 in 4) or
// InferBatch on 16 rows (1 in 4), and a client settles a device over
// loopback TCP once 64 charges have accumulated on it.
const (
	serveModel       = "serve-mlp"
	servePerProfile  = 10
	serveFeatures    = 16
	serveClasses     = 4
	serveBatchRows   = 16
	serveSettleEvery = 64
	serveAttRate     = 4
	serveCheckEvery  = 64 // one call in serveCheckEvery is checked against ReferenceLogits
	serveQuota       = 1 << 40
	setupReps        = 9
	serveHeapCalls   = 10000 // per client in the fixed-size warm-up
)

var vendorKey = []byte("perfbench-vendor-key-0123456789ab")

// serveFixture is the workload's input: a trained model, its evaluation
// and calibration splits and a pool of query rows. The model is the same
// for every seed, so every seed serves the same variants at the same
// cost; the seed draws the query rows, the call mix and the devices.
type serveFixture struct {
	net         *nn.Network
	eval, calib *dataset.Dataset
	rows        [][]float32
}

func newServeFixture(seed uint64) (*serveFixture, error) {
	rng := tensor.NewRNG(0x5e7e)
	ds := dataset.Blobs(rng, 1600, serveFeatures, serveClasses, 2.5)
	train, eval := ds.Split(0.75, rng)
	net := nn.NewNetwork([]int{serveFeatures},
		nn.NewDense(serveFeatures, 32, rng), nn.NewReLU(), nn.NewDense(32, serveClasses, rng))
	if _, err := nn.Train(net, train.X, train.Y, nn.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: nn.NewSGD(0.05), RNG: rng,
	}); err != nil {
		return nil, err
	}
	// Queries come from the training distribution, so the calibrated drift
	// monitors stay quiet and every query is an in-distribution one.
	qrng := tensor.NewRNG(seed)
	rows := make([][]float32, 4096)
	for i := range rows {
		j := qrng.Intn(train.Len())
		rows[i] = append([]float32(nil), train.X.Data[j*serveFeatures:(j+1)*serveFeatures]...)
	}
	return &serveFixture{net: net, eval: eval, calib: train, rows: rows}, nil
}

// serveEnv is one provisioned platform with its settlement server.
type serveEnv struct {
	p        *core.Platform
	deps     []*core.Deployment
	srv      *metering.Server
	addr     string
	deployMs float64
}

func (e *serveEnv) close() { e.srv.Close() }

// setupServe provisions the fleet, publishes the model line, deploys it
// (one cohort pinned to float32) and starts the settlement server.
func setupServe(fx *serveFixture, opts options) (*serveEnv, error) {
	perProfile := servePerProfile
	if opts.smoke {
		perProfile = 2
	}
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: perProfile, Seed: opts.seed})
	if err != nil {
		return nil, err
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
	}
	p, err := core.New(fleet, core.Config{
		VendorKey: vendorKey, Seed: opts.seed, MinCohort: 1, Workers: opts.procs,
		VerifiedBilling: true, AttestationRate: serveAttRate,
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.Publish(serveModel, fx.net.Clone(), fx.eval, core.DefaultOptimizationSpec(fx.eval)); err != nil {
		return nil, err
	}
	ids := fleetIDs(fleet)
	// The default policy selects no float32 anywhere, so the m7-camera
	// cohort is pinned to it. It selects int4 rather than ternary on the
	// edge gateways, the only profile with native 2-bit kernels, so that
	// cohort is pinned to ternary. The rest take the default selection.
	cohorts := map[device.Class][]quant.Scheme{
		device.ClassM7:         {quant.Float32},
		device.ClassEdgeServer: {quant.Ternary},
	}
	groups := map[string][]string{}
	var order []string
	for _, id := range ids {
		d, _ := fleet.Get(id)
		key := fmt.Sprint(cohorts[d.Caps.Class])
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], id)
	}
	t0 := time.Now()
	for _, key := range order {
		cfg := core.DeployConfig{PrepaidQueries: serveQuota, Calibration: fx.calib}
		if d, _ := fleet.Get(groups[key][0]); cohorts[d.Caps.Class] != nil {
			cfg.Policy = selector.DefaultPolicy()
			cfg.Policy.Schemes = cohorts[d.Caps.Class]
		}
		if _, err := p.DeployMany(groups[key], serveModel, cfg); err != nil {
			return nil, err
		}
	}
	deployMs := ms(time.Since(t0))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := metering.Serve(l, p.Settler)
	return &serveEnv{p: p, deps: p.Deployments(), srv: srv, addr: srv.Addr(), deployMs: deployMs}, nil
}

func fleetIDs(f *device.Fleet) []string {
	var ids []string
	for _, d := range f.Devices() {
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)
	return ids
}

// setupMedian runs setup reps times, closing all but the last
// environment, and returns it with the median setup time in seconds.
func setupMedian[E any](reps int, setup func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		// Each setup starts from a collected heap, so it does not pay for
		// collecting the environment before it.
		runtime.GC()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// serveStats accumulates one client's measurements.
type serveStats struct {
	*outcome
	infer, batch, settle *hist
	rows                 int64
	// Traced-only accumulators.
	fwd                       map[quant.Scheme]*hist
	inferSelf                 *hist
	batchAdmitted, batchCalls int64
	prove, rpc, ack           time.Duration
	settles, proofs           int64
	// stages and whole are per-settlement times in ms of the unrolled
	// settlements' three stages and of the MustSettle calls.
	stages, whole             meanAcc
	checked, rejects          int64
	reportBytes, reportsSized int64
	syncDur                   time.Duration
	syncs, records, uplink    int64
	modelLat, wallLat         time.Duration
}

func newServeStats() *serveStats {
	return &serveStats{
		outcome: newOutcome(), infer: newHist(), batch: newHist(), settle: newHist(),
		fwd: map[quant.Scheme]*hist{}, inferSelf: newHist(),
	}
}

func (s *serveStats) merge(o *serveStats) {
	s.absorb(o.outcome)
	s.infer.merge(o.infer)
	s.batch.merge(o.batch)
	s.settle.merge(o.settle)
	s.inferSelf.merge(o.inferSelf)
	for k, h := range o.fwd {
		if s.fwd[k] == nil {
			s.fwd[k] = newHist()
		}
		s.fwd[k].merge(h)
	}
	s.rows += o.rows
	s.batchAdmitted += o.batchAdmitted
	s.batchCalls += o.batchCalls
	s.prove += o.prove
	s.rpc += o.rpc
	s.ack += o.ack
	s.stages.merge(o.stages)
	s.whole.merge(o.whole)
	s.settles += o.settles
	s.proofs += o.proofs
	s.checked += o.checked
	s.rejects += o.rejects
	s.reportBytes += o.reportBytes
	s.reportsSized += o.reportsSized
	s.syncDur += o.syncDur
	s.syncs += o.syncs
	s.records += o.records
	s.uplink += o.uplink
	s.modelLat += o.modelLat
	s.wallLat += o.wallLat
}

// servePhase runs the closed loop for the given seconds, or for exactly
// calls calls per client when calls > 0, and returns the merged
// measurements and the phase's wall time.
func servePhase(env *serveEnv, fx *serveFixture, opts options, seconds float64, calls int, tr *tracer, phase uint64) (*serveStats, time.Duration) {
	clients := opts.procs
	end := deadline(seconds)
	var settledTotal atomic.Int64
	var syncMu sync.Mutex
	stats := make([]*serveStats, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		st := newServeStats()
		stats[c] = st
		var mine []*core.Deployment
		for i := c; i < len(env.deps); i += clients {
			mine = append(mine, env.deps[i])
		}
		rng := tensor.NewRNG(opts.seed*1000003 + phase*7919 + uint64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &serveClient{env: env, fx: fx, st: st, rng: rng, tr: tr,
				charged: make([]int, len(mine)), deps: mine, settledTotal: &settledTotal, syncMu: &syncMu}
			cl.loop(end, calls)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	total := newServeStats()
	for _, s := range stats {
		total.merge(s)
	}
	return total, wall
}

// serveClient is one closed-loop client owning a slice of devices.
type serveClient struct {
	env          *serveEnv
	fx           *serveFixture
	st           *serveStats
	rng          *tensor.RNG
	tr           *tracer
	deps         []*core.Deployment
	charged      []int
	settledTotal *atomic.Int64
	syncMu       *sync.Mutex
	batchRows    [][]float32
	nSettle      int
}

func (c *serveClient) loop(end time.Time, calls int) {
	c.batchRows = make([][]float32, serveBatchRows)
	for i := 0; calls > 0 && i < calls || calls == 0 && time.Now().Before(end); i++ {
		di := c.rng.Intn(len(c.deps))
		d := c.deps[di]
		check := c.rng.Intn(serveCheckEvery) == 0
		var n int
		if c.rng.Intn(4) < 3 {
			n = c.inferOne(d, check)
		} else {
			n = c.inferBatch(d, check)
		}
		c.charged[di] += n
		if c.charged[di] >= serveSettleEvery {
			c.charged[di] = 0
			c.settle(d)
		}
	}
}

func (c *serveClient) inferOne(d *core.Deployment, check bool) int {
	x := c.fx.rows[c.rng.Intn(len(c.fx.rows))]
	c.st.attempted++
	var req int64
	var sp spanRef
	if c.tr != nil {
		req = c.tr.request()
		sp = c.tr.begin("core.Deployment.Infer", 0, req)
	}
	t0 := time.Now()
	res, err := d.Infer(x)
	dt := time.Since(t0)
	if c.tr != nil {
		dt = c.tr.end(sp)
		// Same-step replay of the forward pass alone, grouped by the
		// kernels actually serving the deployment.
		rp := c.tr.begin("core.Deployment.ReferenceLogits", 0, req)
		logits := d.ReferenceLogits(x)
		fwd := c.tr.end(rp)
		scheme := d.ExecutionScheme()
		h := c.st.fwd[scheme]
		if h == nil {
			h = newHist()
			c.st.fwd[scheme] = h
		}
		h.addDur(fwd)
		c.st.inferSelf.addDur(dt - fwd)
		c.st.modelLat += res.Latency
		c.st.wallLat += dt
		// The replay doubles as the output check on every traced query.
		if err == nil && argmax(logits) != res.Label {
			c.st.fail("infer on %s: label %d, reference argmax %d", d.DeviceID, res.Label, argmax(logits))
		}
		check = false
	}
	c.st.infer.addDur(dt)
	if err != nil {
		c.st.fail("infer on %s: %v", d.DeviceID, err)
		return 1
	}
	c.st.rows++
	if check {
		if want := argmax(d.ReferenceLogits(x)); want != res.Label {
			c.st.fail("infer on %s: label %d, reference argmax %d", d.DeviceID, res.Label, want)
		}
	}
	return 1
}

func (c *serveClient) inferBatch(d *core.Deployment, check bool) int {
	for i := range c.batchRows {
		c.batchRows[i] = c.fx.rows[c.rng.Intn(len(c.fx.rows))]
	}
	c.st.attempted++
	var sp spanRef
	if c.tr != nil {
		sp = c.tr.begin("core.Deployment.InferBatch", 0, c.tr.request())
	}
	t0 := time.Now()
	outs := d.InferBatch(c.batchRows)
	dt := time.Since(t0)
	if c.tr != nil {
		dt = c.tr.end(sp)
	}
	c.st.batch.addDur(dt)
	admitted := 0
	var firstErr error
	for i, o := range outs {
		if o.Err != nil {
			if firstErr == nil {
				firstErr = o.Err
			}
			continue
		}
		admitted++
		if check {
			if want := argmax(d.ReferenceLogits(c.batchRows[i])); want != o.Result.Label {
				c.st.fail("batch row %d on %s: label %d, reference argmax %d", i, d.DeviceID, o.Result.Label, want)
			}
		}
	}
	c.st.rows += int64(admitted)
	c.st.batchAdmitted += int64(admitted)
	c.st.batchCalls++
	if firstErr != nil {
		c.st.fail("batch on %s: %d of %d rows failed: %v", d.DeviceID, len(outs)-admitted, len(outs), firstErr)
	}
	return len(outs)
}

// settle settles one device's unsettled charges and checks the receipt:
// the report must be accepted with exactly its sampled charges proved.
// Traced, every other settlement is unrolled into its stages, and the
// rest go through metering.MustSettle whole, so the stage sums can be
// checked against the real call.
func (c *serveClient) settle(d *core.Deployment) {
	c.st.attempted++
	c.nSettle++
	rep := d.Meter.BuildReport()
	want := sampledCount(rep)
	vid := rep.Voucher.ID
	var receipt metering.Receipt
	var err error
	if c.tr != nil && c.nSettle%2 == 0 {
		receipt, err = c.settleStages(d)
	} else {
		err = c.mustSettle(d)
		receipt, _ = c.env.p.Settler.LastReceipt(vid)
	}
	c.st.checked += int64(receipt.ProofsChecked)
	if errors.Is(err, metering.ErrSettlementRejected) {
		c.st.rejects++
	}
	if err != nil {
		c.st.fail("settle %s: %v", d.DeviceID, err)
	} else if !receipt.OK || receipt.ProofsChecked != want {
		c.st.fail("settle %s: receipt ok=%v proofs %d, want %d", d.DeviceID, receipt.OK, receipt.ProofsChecked, want)
	}
	if n := c.settledTotal.Add(1); n%int64(len(c.env.deps)) == 0 {
		c.sync()
	}
}

// mustSettle settles through metering.MustSettle, timed as a whole.
func (c *serveClient) mustSettle(d *core.Deployment) error {
	var sp spanRef
	if c.tr != nil {
		sp = c.tr.begin("metering.MustSettle", 0, c.tr.request())
	}
	t0 := time.Now()
	err := metering.MustSettle(c.env.addr, d.Meter)
	dt := time.Since(t0)
	if c.tr != nil {
		dt = c.tr.end(sp)
		c.st.whole.add(ms(dt))
	}
	c.st.settle.addDur(dt)
	return err
}

// settleStages is metering.MustSettle unrolled into its three stages so
// each is timed: build and prove, TCP round trip with verification, and
// acknowledgment.
func (c *serveClient) settleStages(d *core.Deployment) (metering.Receipt, error) {
	req := c.tr.request()
	top := c.tr.begin("metering.MustSettle.unrolled", 0, req)
	sp := c.tr.begin("metering.BuildAttestedReport", top.id, req)
	rep, err := d.Meter.BuildAttestedReport()
	prove := c.tr.end(sp)
	var receipt metering.Receipt
	var rpc, ack time.Duration
	if err == nil {
		sp = c.tr.begin("metering.SettleAttestedOverTCP", top.id, req)
		receipt, err = metering.SettleAttestedOverTCP(c.env.addr, rep)
		rpc = c.tr.end(sp)
		if err == nil && !receipt.OK {
			err = fmt.Errorf("%w: %s", metering.ErrSettlementRejected, receipt.Reason)
		}
		if err == nil {
			sp = c.tr.begin("metering.Meter.Acknowledge", top.id, req)
			d.Meter.Acknowledge(receipt.AckSeq)
			ack = c.tr.end(sp)
		}
	}
	c.tr.end(top)
	c.st.prove += prove
	c.st.rpc += rpc
	c.st.ack += ack
	c.st.stages.add(ms(prove + rpc + ack))
	c.st.settles++
	c.st.proofs += int64(len(rep.Attestations))
	// The wire size is measured on every eighth report, outside the spans.
	if c.st.settles%8 == 1 {
		if b, jerr := json.Marshal(rep); jerr == nil {
			c.st.reportBytes += int64(len(b)) + 1
			c.st.reportsSized++
		}
	}
	return receipt, err
}

// sampledCount is the number of charges in a report the settler expects
// proofs for.
func sampledCount(rep metering.Report) int {
	if len(rep.Entries) == 0 {
		return 0
	}
	head := rep.Entries[len(rep.Entries)-1].Hash
	n := 0
	for _, e := range rep.Entries {
		if metering.Sampled(head, rep.Voucher.ID, e.Seq, serveAttRate) {
			n++
		}
	}
	return n
}

// sync runs one fleet-wide telemetry sync, once per settlement pass.
func (c *serveClient) sync() {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.st.attempted++
	var sp spanRef
	if c.tr != nil {
		sp = c.tr.begin("core.Platform.SyncTelemetry", 0, c.tr.request())
	}
	recs, bytes, err := c.env.p.SyncTelemetry()
	if c.tr != nil {
		c.st.syncDur += c.tr.end(sp)
	}
	c.st.syncs++
	c.st.records += int64(recs)
	c.st.uplink += int64(bytes)
	if err != nil {
		c.st.fail("sync telemetry: %v", err)
	}
}

// runServe runs the serve_settle workload.
func runServe(opts options, tr *tracer) (*outcome, error) {
	fx, err := newServeFixture(opts.seed)
	if err != nil {
		return nil, err
	}
	env, setupS, err := setupMedian(setupReps, func() (*serveEnv, error) { return setupServe(fx, opts) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := newOutcome()
	if err := checkServeCohorts(env); err != nil {
		return nil, err
	}
	// Warm-up of fixed size: it fills the serving arenas and connection
	// paths, and the live heap is read after it. The platform keeps every
	// telemetry record it ingests, so a heap read after the timed phase
	// would grow with throughput; after fixed work it shows what the
	// platform retains per unit of work.
	calls := serveHeapCalls
	if opts.smoke {
		calls = 200
	}
	warm, _ := servePhase(env, fx, opts, 0, calls, nil, 3)
	out.absorb(warm.outcome)
	heap := heapMB()
	if !opts.trace {
		st, wall := servePhase(env, fx, opts, opts.seconds, 0, nil, 0)
		out.absorb(st.outcome)
		// The workload's task is one settlement, and its throughput the
		// rows served per second, settlement included.
		setE2E(out, st.infer, st.settle, float64(st.rows)/wall.Seconds(), setupS, heap)
		out.samples["infer"] = st.infer.n
		out.samples["batch"] = st.batch.n
		out.samples["settle"] = st.settle.n
		requireTail(out, opts, "infer", st.infer, 0.99)
		requireTail(out, opts, "settle", st.settle, 0.90)
		return out, nil
	}

	ref, refWall := servePhase(env, fx, opts, opts.seconds/2, 0, nil, 1)
	out.absorb(ref.outcome)
	alloc := startAlloc()
	st, wall := servePhase(env, fx, opts, opts.seconds/2, 0, tr, 2)
	allocMB, gcs := alloc.stop()
	out.absorb(st.outcome)
	L := out.layer
	for _, s := range []struct {
		scheme quant.Scheme
		name   string
	}{{quant.Float32, "nn.f32_fwd_us"}, {quant.Int8, "quant.int8_fwd_us"}, {quant.Int4, "quant.int4_fwd_us"}, {quant.Ternary, "quant.ternary_fwd_us"}} {
		h := st.fwd[s.scheme]
		if h == nil || h.n == 0 {
			out.fail("no single-row query ran on %v kernels", s.scheme)
			continue
		}
		L.set(s.name, h.mean()/1e3, "us")
	}
	L.set("core.infer_self_us", st.inferSelf.mean()/1e3, "us")
	L.set("core.batch_us", st.batch.mean()/1e3, "us")
	L.set("core.batch_rows", ratio(float64(st.batchAdmitted), float64(st.batchCalls)), "rows")
	L.set("device.model_ratio", ratio(float64(st.modelLat), float64(st.wallLat)), "ratio")
	n := float64(st.settles)
	L.set("metering.prove_ms", ratio(ms(st.prove), n), "ms")
	L.set("metering.rpc_ms", ratio(ms(st.rpc), n), "ms")
	L.set("metering.ack_us", ratio(us(st.ack), n), "us")
	L.set("metering.report_kb", ratio(float64(st.reportBytes)/1024, float64(st.reportsSized)), "KB")
	L.set("metering.proofs_per_report", ratio(float64(st.proofs), n), "count")
	L.set("verify.proofs_checked", float64(st.checked), "count")
	L.set("metering.rejected", float64(st.rejects), "count")
	L.set("observe.sync_ms", ratio(ms(st.syncDur), float64(st.syncs)), "ms")
	L.set("observe.records", float64(st.records), "count")
	L.set("observe.uplink_kb", float64(st.uplink)/1024, "KB")
	L.set("core.deploy_ms", env.deployMs, "ms")
	L.set("runtime.alloc_mb", allocMB, "MB")
	L.set("runtime.gc_cycles", gcs, "count")
	refRate := float64(ref.rows) / refWall.Seconds()
	rate := float64(st.rows) / wall.Seconds()
	L.set("trace.overhead_frac", ratio(refRate, rate)-1, "ratio")
	// Closed-form check: the mean of the three unrolled stages matches the
	// mean of the settlements made through MustSettle itself.
	checkMeans(out, "settle_stages/MustSettle", st.stages, st.whole, opts.enforce())
	out.samples["settle_unrolled"] = st.settles
	out.samples["settle_whole"] = int64(st.whole.n)
	return out, nil
}

// checkServeCohorts verifies the fleet serves every scheme the per-layer
// metrics group by.
func checkServeCohorts(env *serveEnv) error {
	seen := map[quant.Scheme]int{}
	for _, d := range env.deps {
		seen[d.ExecutionScheme()]++
	}
	for _, s := range []quant.Scheme{quant.Float32, quant.Int8, quant.Int4, quant.Ternary} {
		if seen[s] == 0 {
			return fmt.Errorf("no deployment executes %v kernels (have %v)", s, seen)
		}
	}
	return nil
}

// stageSumTol is the share of a whole span by which the sum of its timed
// stages may differ from it; the uncovered gaps are bookkeeping between
// calls.
const stageSumTol = 0.05

// checkShare records parts as a share of whole under name and fails the
// run if it is off by more than tol.
func checkShare(out *outcome, name string, parts, whole, tol float64) {
	out.closure[name] = ratio(parts, whole)
	out.closureTol[name] = tol
	if whole <= 0 || math.Abs(whole-parts) > tol*whole {
		out.fail("%s: stages %.4g, whole %.4g, beyond a share of %.3g", name, parts, whole, tol)
	}
}

// checkMeans compares the mean of a call's unrolled stages with the mean
// of the same call made whole, taken from interleaved halves of the traced
// run. They may differ by stageSumTol, widened to four standard errors of
// their difference when the samples are noisier than that. Smoke runs only
// record the share: their few samples check plumbing, not means.
func checkMeans(out *outcome, name string, parts, whole meanAcc, enforce bool) {
	tol := math.Max(stageSumTol, 4*math.Hypot(parts.se(), whole.se())/whole.mean())
	if !enforce {
		out.closure[name] = ratio(parts.mean(), whole.mean())
		return
	}
	checkShare(out, name, parts.mean(), whole.mean(), tol)
}

// setE2E sets the end-to-end metrics every workload reports: single-row
// Infer latency at p50 and p99, the workload's task time at p50 and p90,
// its throughput, setup time and live heap.
func setE2E(out *outcome, infer, task *hist, throughput, setupS, heap float64) {
	out.e2e.set("infer_p50_us", infer.quantile(0.50)/1e3, "us")
	out.e2e.set("infer_p99_us", infer.quantile(0.99)/1e3, "us")
	out.e2e.set("task_p50_ms", task.quantile(0.50)/1e6, "ms")
	out.e2e.set("task_p90_ms", task.quantile(0.90)/1e6, "ms")
	out.e2e.set("throughput_per_s", throughput, "1/s")
	out.e2e.set("setup_s", setupS, "s")
	out.e2e.set("live_heap_mb", heap, "MB")
}

// requireTail fails the run when a percentile has fewer than ten samples
// beyond it (smoke runs and probes are exempt: they check plumbing, not
// tails).
func requireTail(out *outcome, opts options, name string, h *hist, q float64) {
	if !opts.enforce() {
		return
	}
	if b := h.beyond(q); b < 10 {
		out.problems = append(out.problems, fmt.Sprintf("%s: only %d samples beyond p%g (run longer)", name, b, q*100))
	}
}
