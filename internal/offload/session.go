package offload

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/market"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// ErrMetered is wrapped by Infer when the prepaid meter denies the query.
// The denial happens before any compute: no prefix runs, no byte moves.
var ErrMetered = errors.New("offload: query denied by meter")

// Mode records how one offloaded query actually executed.
type Mode int

// Execution modes.
const (
	// ModeLocal means the plan kept every layer on-device (offline, or
	// the split simply isn't worth it).
	ModeLocal Mode = iota
	// ModeSplit means the prefix ran on-device and the suffix in the
	// cloud — the partitioned path the plane exists for.
	ModeSplit
	// ModeFallback means a split was attempted but the network or the
	// cloud failed it, and the device finished the suffix itself. The
	// answer is still bit-identical — only the cost accounting differs.
	ModeFallback
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeSplit:
		return "split"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is one offloaded query's outcome and cost decomposition.
type Result struct {
	// Label is the argmax of the output row.
	Label int
	// Logits is the model output, bit-identical to the monolithic
	// forward pass regardless of Mode.
	Logits []float32
	// Latency is the modeled end-to-end time: device prefix + uplink +
	// retry backoff + cloud compute + downlink (terms zero when unused).
	Latency time.Duration
	// Mode is how the query executed; Cut is the plan it executed under.
	Mode Mode
	Cut  int
	// ActivationBytes / ResponseBytes are the serialized boundary sizes
	// that crossed (or would have crossed) the network.
	ActivationBytes int64
	ResponseBytes   int64
	// DeviceEnergyJ is the device-side energy actually charged: prefix
	// (and fallback suffix) compute plus radio transmit.
	DeviceEnergyJ float64
	// CloudBatch is the coalesced batch size the suffix rode in (0 when
	// the suffix never reached the cloud).
	CloudBatch int
	// Replanned reports that this query's condition snapshot moved the
	// cut before executing.
	Replanned bool
}

// Stats aggregates a session's execution counters.
type Stats struct {
	Queries   int64
	Denied    int64
	Split     int64
	Local     int64
	Fallbacks int64
	// Replans counts cut moves; ShedRetries counts extra admission
	// attempts after an ErrShed.
	Replans     int64
	ShedRetries int64
	// ActivationBytes sums the uplinked boundary activations.
	ActivationBytes int64
}

// SessionConfig binds a split-execution session to one device and model.
type SessionConfig struct {
	// Tenant scopes cloud fair scheduling; use the device ID.
	Tenant string
	// VersionID names the registered model version the cloud serves.
	VersionID string
	// Device is the edge node paying for prefix compute and radio.
	Device *device.Device
	// Exec is the on-device executable. It must declare its input shape,
	// and bit-exactness requires it to compute what the cloud's registered
	// executable computes — the same weights, kind and scheme. Its codec
	// is the boundary wire format the session ships, and its SnapCut maps
	// every planned cut onto a boundary it can cross. Queries serialize
	// per session, so an executable may be shared with other users that
	// serialize with the session (a deployment's own serving lock).
	Exec Executable
	// Meter, when non-nil, gates every query (pay-per-query survives the
	// split). Leave nil when an upstream gate already charges, and call
	// Exec instead of Infer.
	Meter *metering.Meter
	// Cloud is the suffix-serving tier.
	Cloud *CloudTier
	// Retry bounds re-admission after cloud shedding (default 3 attempts).
	Retry engine.RetryPolicy
	// Replan tunes the live re-planning loop.
	Replan ReplanConfig
	// Plan, when non-nil, is the initial split; otherwise the session
	// plans from the device's conditions at construction time.
	Plan *market.SplitPlan
}

// Session executes split inference for one device: it plans (and re-plans)
// the cut, runs the prefix on the device cost model, ships the boundary
// activation through the executable's codec, and falls back to full
// on-device execution whenever the network or the cloud fails the split.
// All methods are safe for concurrent use; queries serialize per session.
type Session struct {
	cfg      SessionConfig
	costs    []nn.LayerCost
	features int
	inShape  []int

	mu     sync.Mutex
	replan *Replanner
	tick   uint64
	stats  Stats
	// arena holds the session's execution scratch and boundary-codec
	// buffers: queries serialize under s.mu, so one worker arena per
	// session keeps the steady state allocation-free.
	arena *engine.Arena
}

// NewSession validates the configuration and plans the initial split from
// the device's current conditions (unless cfg.Plan pins one).
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Device == nil || cfg.Cloud == nil {
		return nil, fmt.Errorf("offload: session needs a device and a cloud tier")
	}
	if cfg.Exec == nil {
		return nil, fmt.Errorf("offload: session needs an executable")
	}
	if cfg.Tenant == "" {
		cfg.Tenant = cfg.Device.ID
	}
	if cfg.Retry.Attempts < 1 {
		cfg.Retry.Attempts = 3
	}
	costs, err := cfg.Exec.Costs()
	if err != nil {
		return nil, fmt.Errorf("offload: %w", err)
	}
	if len(costs) == 0 {
		return nil, fmt.Errorf("offload: model has no layers")
	}
	inShape := cfg.Exec.InputShape()
	if inShape == nil {
		return nil, fmt.Errorf("offload: session executable declares no input shape")
	}
	s := &Session{cfg: cfg, costs: costs, inShape: inShape, features: 1, arena: engine.NewArena()}
	for _, d := range inShape {
		s.features *= d
	}
	rp, err := NewReplanner(cfg.Replan, cfg.Device.Caps, cfg.Cloud.Caps(), s.costs,
		cfg.Exec.Bits(), 4*int64(s.features), cfg.Plan, s.conditions())
	if err != nil {
		return nil, err
	}
	s.replan = rp
	return s, nil
}

// conditions snapshots the live telemetry the replanner watches.
func (s *Session) conditions() Conditions {
	return Conditions{
		BandwidthBps: s.cfg.Device.Net().Bandwidth(),
		Battery:      s.cfg.Device.BatteryLevel(),
		QueueDepth:   s.cfg.Cloud.QueueDepth(),
	}
}

// Plan returns the split currently in force.
func (s *Session) Plan() market.SplitPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replan.Current()
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Infer runs one metered query: the prepaid meter charges before any
// compute (an exhausted voucher denies the query with zero device cost),
// then the query executes under the live plan.
func (s *Session) Infer(x []float32) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if s.cfg.Meter == nil {
		return Result{}, fmt.Errorf("offload: session has no meter; use Exec with an upstream gate")
	}
	if err := s.cfg.Meter.Charge(s.tick); err != nil {
		s.cfg.Device.DenyQuery()
		s.stats.Denied++
		return Result{}, fmt.Errorf("%w: %w", ErrMetered, err)
	}
	return s.exec(x)
}

// Exec runs one unmetered query for callers whose own gate already
// charged (the platform's deployment meter, for instance).
func (s *Session) Exec(x []float32) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	return s.exec(x)
}

// exec executes one query under the live plan. Caller holds s.mu.
func (s *Session) exec(x []float32) (Result, error) {
	if len(x) != s.features {
		return Result{}, fmt.Errorf("offload: input has %d features, model wants %d", len(x), s.features)
	}
	plan, moved := s.replan.Observe(s.conditions())
	if moved {
		s.stats.Replans++
	}
	// The planner works on the float layer graph; the executable snaps
	// the cut onto a boundary its codec can cross (an integer executable
	// only cuts before a dense stage, falling back to all-local).
	exe := s.cfg.Exec
	cut := exe.SnapCut(plan.Cut)
	res := Result{Cut: cut, Replanned: moved}
	in := tensor.FromSlice(append([]float32(nil), x...), append([]int{1}, s.inShape...)...)
	n := len(s.costs)
	dev := s.cfg.Device

	// Full-edge plan: one on-device inference, no network at all.
	if cut == n {
		lat, err := dev.RunInference(s.macs(0, n), exe.Bits())
		if err != nil {
			return Result{}, fmt.Errorf("offload: device: %w", err)
		}
		out, err := exe.Forward(in, 0, n, s.arena)
		if err != nil {
			return Result{}, err
		}
		res.Mode, res.Latency = ModeLocal, lat
		res.DeviceEnergyJ = dev.Caps.InferenceEnergy(s.macs(0, n))
		s.finish(&res, out)
		s.stats.Queries++
		s.stats.Local++
		return res, nil
	}

	// Split path: prefix on-device (cut 0 ships the raw input and runs
	// nothing locally), activation through the codec, suffix in the cloud.
	var prefixLat time.Duration
	prefixMACs := s.macs(0, cut)
	if prefixMACs > 0 {
		var err error
		if prefixLat, err = dev.RunInference(prefixMACs, exe.Bits()); err != nil {
			return Result{}, fmt.Errorf("offload: device: %w", err)
		}
		res.DeviceEnergyJ += dev.Caps.InferenceEnergy(prefixMACs)
	}
	act, err := exe.Forward(in, 0, cut, s.arena)
	if err != nil {
		return Result{}, err
	}
	// The encode buffer comes from the session's arena: Cloud.Submit is
	// synchronous and copies what it keeps, so the payload's lifetime ends
	// at return and the buffer's storage is reused by the next query.
	buf := s.arena.Buffer(0)
	if err := exe.Codec().Encode(buf, act, s.arena); err != nil {
		return Result{}, fmt.Errorf("offload: encode activation: %w", err)
	}
	payload := buf.Bytes()
	res.ActivationBytes = int64(len(payload))

	upDur, err := dev.Upload(int64(len(payload)))
	if err != nil {
		// Uplink drop mid-activation: the radio refused (offline, battery)
		// before spending, so fall back to finishing on-device.
		return s.fallback(res, act, cut, prefixLat)
	}
	res.DeviceEnergyJ += float64(len(payload)) * dev.Caps.EnergyPerTxByteJoule
	s.stats.ActivationBytes += int64(len(payload))

	var resp Response
	rr, err := engine.Retry(s.cfg.Retry,
		func(e error) bool { return errors.Is(e, ErrShed) },
		func(int) error {
			r, serr := s.cfg.Cloud.Submit(s.cfg.Tenant, s.cfg.VersionID, cut, payload)
			if serr == nil {
				resp = r
			}
			return serr
		})
	s.stats.ShedRetries += int64(rr.Attempts - 1)
	if err != nil {
		// The cloud shed us past the retry budget (or is closed): the
		// uplink bytes are spent, but the query must still answer.
		return s.fallback(res, act, cut, prefixLat+upDur+rr.Backoff)
	}

	dnDur, err := dev.Download(int64(len(resp.Payload)))
	if err != nil {
		// The answer was computed but the downlink is gone; recompute the
		// suffix locally rather than losing the query.
		return s.fallback(res, act, cut, prefixLat+upDur+rr.Backoff+resp.Latency)
	}
	var out tensor.Tensor
	if _, err := out.ReadFrom(bytes.NewReader(resp.Payload)); err != nil {
		return Result{}, fmt.Errorf("offload: decode result: %w", err)
	}
	res.Mode = ModeSplit
	res.Latency = prefixLat + upDur + rr.Backoff + resp.Latency + dnDur
	res.ResponseBytes = int64(len(resp.Payload))
	res.CloudBatch = resp.BatchSize
	s.finish(&res, &out)
	s.stats.Queries++
	s.stats.Split++
	return res, nil
}

// fallback finishes a failed split on-device: the suffix runs locally on
// the already-computed boundary activation, preserving bit-exactness. An
// integer executable resumes at stage cut, which quantizes the boundary
// exactly as the wire codec did, so fallback answers match split answers.
func (s *Session) fallback(res Result, act *tensor.Tensor, cut int, spent time.Duration) (Result, error) {
	dev := s.cfg.Device
	sufMACs := s.macs(cut, len(s.costs))
	lat, err := dev.RunInference(sufMACs, s.cfg.Exec.Bits())
	if err != nil {
		return Result{}, fmt.Errorf("offload: fallback: %w", err)
	}
	out, err := s.cfg.Exec.Forward(act, cut, len(s.costs), s.arena)
	if err != nil {
		return Result{}, err
	}
	res.Mode = ModeFallback
	res.Latency = spent + lat
	res.DeviceEnergyJ += dev.Caps.InferenceEnergy(sufMACs)
	s.finish(&res, out)
	s.stats.Queries++
	s.stats.Fallbacks++
	return res, nil
}

// finish fills the label and logits from the output row.
func (s *Session) finish(res *Result, out *tensor.Tensor) {
	res.Logits = append([]float32(nil), out.Data...)
	res.Label = out.ArgMaxRows()[0]
}

// macs sums per-layer MACs over [lo,hi).
func (s *Session) macs(lo, hi int) int64 {
	var total int64
	for _, c := range s.costs[lo:hi] {
		total += c.Info.MACs
	}
	return total
}
