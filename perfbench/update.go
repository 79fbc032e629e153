package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tinymlops/internal/benchsuite"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/fed"
	"tinymlops/internal/nn"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// update_cycle: closed loop of retrain-to-fleet cycles. 1,002 devices run
// the model line of the benchsuite fed fixture (1,600 clients, 100
// cohorts). One cycle is a hierarchical, securely aggregated federated
// round that publishes a new base with its variants, then a swarm-mode
// rollout of that base through the default waves; a Bake hook drives a
// fixed number of queries through each updated wave before its gate.
const (
	updateModel       = "fleet-model"
	updatePerProfile  = 167 // 1,002 devices
	updateAggregators = 100
	updateBakeQueries = 4  // per device per wave
	updateCheckEvery  = 64 // one bake query in updateCheckEvery is checked against ReferenceLogits
	updateSwarmChunk  = 256
	updateSetupReps   = 3
	// updateRestartEvery is how many cycles run on one platform before a
	// fresh one replaces it.
	updateRestartEvery = 25
	updateMinCycles    = 100 // task_p90_ms needs ten cycles beyond it
	updateWaveCount    = 3
)

// updateFixture is the workload's input: the fed fixture's clients and
// test split, the initial global model and a pool of bake queries.
type updateFixture struct {
	global  *nn.Network
	clients []*fed.Client
	test    *dataset.Dataset
	rows    [][]float32
}

func newUpdateFixture(seed uint64, smoke bool) *updateFixture {
	global, clients, test := benchsuite.FedFixture()
	if smoke {
		clients = clients[:64]
	}
	rng := tensor.NewRNG(seed ^ 0xfed)
	feats := test.X.Size() / test.Len()
	rows := make([][]float32, 1024)
	for i := range rows {
		j := rng.Intn(test.Len())
		rows[i] = test.X.Data[j*feats : (j+1)*feats]
	}
	return &updateFixture{global: global, clients: clients, test: test, rows: rows}
}

type updateEnv struct {
	p        *core.Platform
	deployMs float64
}

func setupUpdate(fx *updateFixture, opts options) (*updateEnv, error) {
	perProfile := updatePerProfile
	if opts.smoke {
		perProfile = 4
	}
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: perProfile, Seed: opts.seed})
	if err != nil {
		return nil, err
	}
	// Every device is on WiFi and charging, so no update fails for want of
	// a link or a battery.
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := core.New(fleet, core.Config{VendorKey: vendorKey, Seed: opts.seed, MinCohort: 1, Workers: opts.procs})
	if err != nil {
		return nil, err
	}
	if _, err := p.Publish(updateModel, fx.global.Clone(), fx.test, core.DefaultOptimizationSpec(fx.test)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := p.DeployMany(fleetIDs(fleet), updateModel, core.DeployConfig{
		PrepaidQueries: 1 << 40, Calibration: fx.test,
	}); err != nil {
		return nil, err
	}
	return &updateEnv{p: p, deployMs: ms(time.Since(t0))}, nil
}

// cycleStats is one cycle's measurements.
type cycleStats struct {
	// unrolled marks a cycle whose fed round was timed in its stages; fed
	// is then the coordinator's round alone, otherwise the whole
	// HierFederatedUpdate call.
	unrolled                  bool
	total, fed, publish, roll time.Duration
	waves                     [updateWaveCount]struct{ update, bake, gate time.Duration }
	installs                  int64
	// Counts taken from the rollout result and the swarm; the result itself
	// is not kept, so the live heap holds only what the platform retains.
	delta, full int
	ship        int64
	round       fed.RoundStats
	swarm       swarm.Stats
}

// updateRunner runs cycles on one platform.
type updateRunner struct {
	env   *updateEnv
	fx    *updateFixture
	opts  options
	out   *outcome
	cycle int
	// setup provisions a platform; restartEvery cycles run on each, and
	// setupTimes records every provisioning in seconds.
	setup        func() (*updateEnv, error)
	restartEvery int
	sinceSetup   int
	setupTimes   []float64
	// infer, when set, receives the latency of every bake query, and
	// bakeLat is the per-wave buffer it is filled from.
	infer   *hist
	bakeLat []time.Duration
}

func (u *updateRunner) hcfg() fed.HierConfig {
	aggregators := updateAggregators
	if u.opts.smoke {
		aggregators = 8
	}
	return fed.HierConfig{
		Config: fed.Config{
			Rounds: 1, LocalEpochs: 1, LocalBatch: 4, LR: 0.1,
			Seed: u.opts.seed + uint64(u.cycle), Engine: u.env.p.Engine(),
		},
		Aggregators: aggregators, SecureAgg: true,
	}
}

// bake drives updateBakeQueries queries through every device of a wave.
func (u *updateRunner) bake(ids []string, wave int) error {
	p := u.env.p
	fails := make([]error, len(ids))
	n := len(ids) * updateBakeQueries
	if cap(u.bakeLat) < n {
		u.bakeLat = make([]time.Duration, n)
	}
	lat := u.bakeLat[:n]
	err := p.Engine().ForEach(len(ids), func(i int) error {
		d, ok := p.Deployment(ids[i])
		if !ok {
			return fmt.Errorf("no deployment on %s", ids[i])
		}
		for q := 0; q < updateBakeQueries; q++ {
			k := i*updateBakeQueries + q
			row := u.fx.rows[(u.cycle*7919+wave*104729+k)%len(u.fx.rows)]
			t0 := time.Now()
			res, err := d.Infer(row)
			lat[k] = time.Since(t0)
			if err == nil && k%updateCheckEvery == 0 {
				if want := argmax(d.ReferenceLogits(row)); want != res.Label {
					err = fmt.Errorf("label %d, reference argmax %d", res.Label, want)
				}
			}
			if err != nil && fails[i] == nil {
				fails[i] = fmt.Errorf("bake query on %s: %w", ids[i], err)
			}
		}
		return nil
	})
	if u.infer != nil && err == nil {
		for _, d := range lat {
			u.infer.addDur(d)
		}
	}
	u.out.attempted += int64(n)
	for _, f := range fails {
		if f != nil {
			u.out.fail("%v", f)
		}
	}
	return err
}

// stage is an open, timed step of a cycle; with a tracer it is also a
// span.
type stage struct {
	start time.Time
	sp    spanRef
}

// stageClock opens and closes a cycle's stages under one request.
type stageClock struct {
	tr  *tracer
	req int64
}

func (c *stageClock) open(name string, parent *stage) *stage {
	s := &stage{start: time.Now()}
	if c.tr != nil {
		var pid int64
		if parent != nil {
			pid = parent.sp.id
		}
		s.sp = c.tr.begin(name, pid, c.req)
	}
	return s
}

func (c *stageClock) close(s *stage) time.Duration {
	d := time.Since(s.start)
	if c.tr != nil {
		c.tr.end(s.sp)
	}
	return d
}

// runCycle runs one fed round and rollout. With tr set, each stage
// becomes a span; with unroll set, the round is unrolled into its
// coordinator and publish calls.
func (u *updateRunner) runCycle(tr *tracer, unroll bool) (*cycleStats, error) {
	p := u.env.p
	cs := &cycleStats{unrolled: unroll}
	u.out.attempted++
	clk := &stageClock{tr: tr}
	if tr != nil {
		clk.req = tr.request()
	}
	top := clk.open("update.cycle", nil)

	versions, err := u.fedRound(clk, top, cs)
	if err != nil {
		return nil, fmt.Errorf("fed round: %w", err)
	}
	target := versions[0]

	sw, err := p.NewSwarm(core.SwarmOptions{ChunkBytes: updateSwarmChunk, Seed: u.opts.seed + uint64(u.cycle)})
	if err != nil {
		return nil, err
	}
	roll := clk.open("core.Platform.Rollout", top)
	wave := -1
	var open *stage
	closeGate := func() {
		if open != nil {
			cs.waves[wave].gate = clk.close(open)
			open = nil
		}
	}
	res, err := p.Rollout(target, core.RolloutConfig{
		Seed: u.opts.seed + uint64(u.cycle), Calibration: u.fx.test, Swarm: sw,
		// After a retrain, variant re-selection can legitimately move a
		// device between float and integer kernels, which changes its
		// modeled latency by an order of magnitude on MCU classes. The
		// latency gate is opened so every cycle measures a full rollout;
		// the drift and error gates keep their defaults.
		Gate: rollout.Gate{MaxLatencyIncrease: 99},
		BeforeWave: func(w rollout.Wave, _ []string) {
			closeGate()
			wave++
			open = clk.open("rollout.update."+w.Name, roll)
		},
		Bake: func(w rollout.Wave, ids []string) error {
			cs.waves[wave].update = clk.close(open)
			b := clk.open("rollout.bake."+w.Name, roll)
			err := u.bake(ids, wave)
			cs.waves[wave].bake = clk.close(b)
			open = clk.open("rollout.gate."+w.Name, roll)
			return err
		},
	})
	closeGate()
	cs.roll = clk.close(roll)
	cs.total = clk.close(top)
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	cs.delta, cs.full, cs.ship = res.DeltaTransfers, res.FullTransfers, res.TotalShipBytes
	cs.swarm = sw.Stats()
	u.checkCycle(target, res, cs)
	u.cycle++
	u.sinceSetup++
	return cs, nil
}

// fedRound runs one hierarchical federated round and publishes the new
// base with its variants. Unrolled, Platform.HierFederatedUpdate is
// replaced by the same calls so the round and the publish are timed apart.
func (u *updateRunner) fedRound(clk *stageClock, top *stage, cs *cycleStats) ([]*registry.ModelVersion, error) {
	p := u.env.p
	spec := core.DefaultOptimizationSpec(u.fx.test)
	if !cs.unrolled {
		s := clk.open("core.Platform.HierFederatedUpdate", top)
		vs, stats, err := p.HierFederatedUpdate(updateModel, u.fx.clients, u.fx.test, u.hcfg(), spec)
		cs.fed = clk.close(s)
		if err == nil && len(stats) > 0 {
			cs.round = stats[len(stats)-1]
		}
		return vs, err
	}
	s := clk.open("fed.HierCoordinator.Run", top)
	latest, err := p.Registry.Latest(updateModel)
	if err != nil {
		return nil, err
	}
	global, err := p.Registry.Load(latest.ID)
	if err != nil {
		return nil, err
	}
	hc, err := fed.NewHierCoordinator(global, u.fx.clients, u.fx.test.X, u.fx.test.Y, u.hcfg())
	if err != nil {
		return nil, err
	}
	stats, err := hc.Run()
	cs.fed = clk.close(s)
	if err != nil {
		return nil, err
	}
	if len(stats) > 0 {
		cs.round = stats[len(stats)-1]
	}
	s = clk.open("fed.HierCoordinator.PublishGlobal", top)
	vs, err := hc.PublishGlobal(p.Registry, updateModel, spec)
	cs.publish = clk.close(s)
	return vs, err
}

// checkCycle verifies a cycle's outcome: the rollout completed, every
// deployment runs the target or one of its variants, and the swarm moved
// every byte exactly once with no chunk failing its hash.
func (u *updateRunner) checkCycle(target *registry.ModelVersion, res *rollout.Result, cs *cycleStats) {
	if !res.Completed {
		reason := "no wave ran"
		if n := len(res.Waves); n > 0 {
			reason = fmt.Sprintf("wave %s: %v", res.Waves[n-1].Wave.Name, res.Waves[n-1].Gate.Reasons)
		}
		u.out.fail("cycle %d: rollout did not complete (%s)", u.cycle, reason)
	}
	for _, w := range res.Waves {
		for _, o := range w.Outcomes {
			if o.UpdateErr == "" && !o.Transfer.Unchanged() {
				cs.installs++
			}
		}
	}
	for _, d := range u.env.p.Deployments() {
		v, _, _ := d.StateSnapshot()
		if v.ID != target.ID && v.ParentID != target.ID {
			u.out.fail("cycle %d: %s runs %s, not %s or a variant of it", u.cycle, d.DeviceID, v.ID, target.ID)
		}
	}
	if cs.swarm.ConservationViolations != 0 || cs.swarm.HashRejects != 0 {
		u.out.fail("cycle %d: swarm conservation violations %d, hash rejects %d", u.cycle, cs.swarm.ConservationViolations, cs.swarm.HashRejects)
	}
}

// updatePhase runs blocks of updateRestartEvery cycles until the phase
// deadline has passed and at least minCycles ran. Each block starts on a
// fresh platform, because every cycle adds a version line to the registry
// and cycle time and live heap grow with it; the restarts count as setup.
// Traced, every other cycle is unrolled. It returns the cycles and the
// phase's wall time without the restarts.
func updatePhase(u *updateRunner, seconds float64, minCycles int, tr *tracer) ([]*cycleStats, time.Duration, error) {
	end := deadline(seconds)
	t0 := time.Now()
	var restarts time.Duration
	var cycles []*cycleStats
	for {
		if u.sinceSetup == u.restartEvery {
			r0 := time.Now()
			if err := u.restart(); err != nil {
				return nil, 0, err
			}
			restarts += time.Since(r0)
		}
		cs, err := u.runCycle(tr, tr != nil && len(cycles)%2 == 1)
		if err != nil {
			return nil, 0, err
		}
		cycles = append(cycles, cs)
		if u.sinceSetup == u.restartEvery && len(cycles) >= minCycles && time.Now().After(end) {
			return cycles, time.Since(t0) - restarts, nil
		}
	}
}

// restart replaces the platform with a freshly provisioned one.
func (u *updateRunner) restart() error {
	// The previous platform is dropped and collected first, so its
	// collection is not counted as setup.
	u.env = nil
	runtime.GC()
	t0 := time.Now()
	env, err := u.setup()
	if err != nil {
		return err
	}
	u.setupTimes = append(u.setupTimes, time.Since(t0).Seconds())
	u.env, u.sinceSetup = env, 0
	return nil
}

// runUpdate runs the update_cycle workload.
func runUpdate(opts options, tr *tracer) (*outcome, error) {
	fx := newUpdateFixture(opts.seed, opts.smoke)
	out := newOutcome()
	u := &updateRunner{fx: fx, opts: opts, out: out, restartEvery: updateRestartEvery,
		setup: func() (*updateEnv, error) { return setupUpdate(fx, opts) }}
	minCycles := updateMinCycles
	if opts.smoke {
		minCycles, u.restartEvery = 2, 2
	}
	for i := 0; i < updateSetupReps; i++ {
		if err := u.restart(); err != nil {
			return nil, err
		}
	}
	deployMs := u.env.deployMs
	if !opts.trace {
		u.infer = newHist()
		cycles, wall, err := updatePhase(u, opts.seconds, minCycles, nil)
		if err != nil {
			return nil, err
		}
		heap := heapMB()
		h := newHist()
		var installs int64
		for _, c := range cycles {
			h.addDur(c.total)
			installs += c.installs
		}
		// The workload's queries are the bake traffic, its task one whole
		// cycle, and its throughput the device installs per second.
		setE2E(out, u.infer, h, float64(installs)/wall.Seconds(), median(u.setupTimes), heap)
		out.samples["infer"] = u.infer.n
		out.samples["cycle"] = h.n
		out.samples["installs"] = installs
		requireTail(out, opts, "infer", u.infer, 0.99)
		requireTail(out, opts, "cycle", h, 0.90)
		trend := make([]float64, 10)
		for i := range trend {
			trend[i] = decileMean(cycles, i)
		}
		line, _ := json.Marshal(map[string]any{"cycle_decile_ms": trend})
		fmt.Println(string(line))
		return out, nil
	}

	ref, refWall, err := updatePhase(u, opts.seconds/2, 1, nil)
	if err != nil {
		return nil, err
	}
	alloc := startAlloc()
	cycles, wall, err := updatePhase(u, opts.seconds/2, 1, tr)
	if err != nil {
		return nil, err
	}
	allocMB, gcs := alloc.stop()
	n := float64(len(cycles))
	// The round and the publish are timed apart on the unrolled cycles,
	// and through HierFederatedUpdate as a whole on the others.
	var nu float64
	var fedD, pubD, rollD, waveSum time.Duration
	// Per-cycle ms: the unrolled round and publish, alone and with the
	// rollout, and the whole HierFederatedUpdate call and cycle.
	var fedPub, unrolledCycle, hier, wholeCycle meanAcc
	var waves [updateWaveCount]struct{ update, bake, gate time.Duration }
	var cloudUp, edgeUp, delta, full, ship, regB, peerB, verified, resumed float64
	for _, c := range cycles {
		if c.unrolled {
			nu++
			fedD += c.fed
			pubD += c.publish
			fedPub.add(ms(c.fed + c.publish))
			unrolledCycle.add(ms(c.fed + c.publish + c.roll))
		} else {
			hier.add(ms(c.fed))
			wholeCycle.add(ms(c.total))
		}
		rollD += c.roll
		for w := range c.waves {
			waves[w].update += c.waves[w].update
			waves[w].bake += c.waves[w].bake
			waves[w].gate += c.waves[w].gate
			waveSum += c.waves[w].update + c.waves[w].bake + c.waves[w].gate
		}
		cloudUp += float64(c.round.CloudUplinkBytes)
		edgeUp += float64(c.round.EdgeUplinkBytes)
		delta += float64(c.delta)
		full += float64(c.full)
		ship += float64(c.ship)
		regB += float64(c.swarm.RegistryEgressBytes)
		peerB += float64(c.swarm.PeerBytes)
		verified += float64(c.swarm.ChunksVerified)
		resumed += float64(c.swarm.Resumed)
	}
	L := out.layer
	L.set("fed.round_ms", ratio(ms(fedD), nu), "ms")
	L.set("registry.publish_ms", ratio(ms(pubD), nu), "ms")
	L.set("fed.cloud_uplink_kb", cloudUp/1024/n, "KB")
	L.set("fed.edge_uplink_kb", edgeUp/1024/n, "KB")
	for w, name := range waveNames() {
		L.set("rollout.update_ms."+name, ms(waves[w].update)/n, "ms")
		L.set("rollout.bake_ms."+name, ms(waves[w].bake)/n, "ms")
		L.set("rollout.gate_ms."+name, ms(waves[w].gate)/n, "ms")
	}
	L.set("rollout.delta_transfers", delta/n, "count")
	L.set("rollout.full_transfers", full/n, "count")
	L.set("rollout.ship_kb", ship/1024/n, "KB")
	L.set("swarm.registry_kb", regB/1024/n, "KB")
	L.set("swarm.peer_kb", peerB/1024/n, "KB")
	L.set("swarm.chunks_verified", verified/n, "count")
	L.set("swarm.resumed", resumed/n, "count")
	L.set("core.deploy_ms", deployMs, "ms")
	L.set("runtime.alloc_mb", allocMB, "MB")
	L.set("runtime.gc_cycles", gcs, "count")
	refCycle := refWall.Seconds() / float64(len(ref))
	L.set("trace.overhead_frac", ratio(wall.Seconds()/n, refCycle)-1, "ratio")
	// Closed-form checks. The unrolled round and publish match the mean
	// HierFederatedUpdate call, and with the rollout the mean whole cycle;
	// the waves' stages account for every rollout.
	checkMeans(out, "fed+publish/HierFederatedUpdate", fedPub, hier, opts.enforce())
	checkMeans(out, "fed+publish+rollout/cycle", unrolledCycle, wholeCycle, opts.enforce())
	checkShare(out, "wave_stages/rollout", ms(waveSum), ms(rollD), stageSumTol)
	out.samples["cycle_unrolled"] = int64(nu)
	out.samples["cycle_whole"] = int64(hier.n)
	return out, nil
}

// waveNames are the default waves' names, in order.
func waveNames() []string {
	var names []string
	for _, w := range rollout.DefaultWaves() {
		names = append(names, w.Name)
	}
	return names
}

// decileMean is the mean cycle time in ms of the given tenth of the run —
// the first and last are compared to show whether cycle time trends as
// the registry grows.
func decileMean(cycles []*cycleStats, decile int) float64 {
	n := len(cycles)
	lo, hi := decile*n/10, (decile+1)*n/10
	if hi <= lo {
		return 0
	}
	var s time.Duration
	for _, c := range cycles[lo:hi] {
		s += c.total
	}
	return ms(s) / float64(hi-lo)
}
