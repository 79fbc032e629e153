package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// newExecutable builds the executable serving (device, version): a
// compiled version runs its procvm module; a variant with an integer
// scheme the device supports natively executes on the quant integer
// kernels; everything else — float bases, devices without the bit width,
// models the integer runtime cannot lower — runs the float engine over
// the artifact's (fake-quantized) weights, charged at the variant's bit
// width so unsupported widths pay the emulation penalty (§III-A: low
// precision buys nothing unless the device runs real integer kernels).
// The registry artifact stays the source of truth: the executable is
// re-derived from the decrypted model after every update or rollback.
func newExecutable(dev *device.Device, v *registry.ModelVersion, model *nn.Network, compiled *procvm.Module) offload.Executable {
	if compiled != nil {
		return offload.Module(compiled, procvm.CapSensor, v.Metrics.MACs, nil)
	}
	if v.Scheme != quant.Float32 && dev.Caps.SupportsBits(v.Scheme.Bits()) {
		if e, err := offload.Quant(model, v.Scheme); err == nil {
			return e
		}
	}
	return offload.Float(model, v.Scheme.Bits())
}

// image is one installed model generation: what a rollback restores.
type image struct {
	version  *registry.ModelVersion
	model    *nn.Network
	compiled *procvm.Module
	monitor  *observe.Monitor
}

// Deployment is one model running on one device: the decrypted model, the
// executable serving it (the float engine, or the integer-kernel QModel
// when the variant's scheme has native hardware support — see
// ExecutionScheme), the metering gate, the drift monitor, the telemetry
// buffer and the optional procvm pipeline stages. Deployments are
// updatable: Update hot-swaps the model to a new registry version (keeping
// meter and telemetry buffer) and Rollback reverts to the previous image,
// A/B-slot style; both re-derive the executable from the swapped-in model.
type Deployment struct {
	DeviceID string
	Version  *registry.ModelVersion

	Meter   *metering.Meter
	Monitor *observe.Monitor
	Buffer  *observe.Buffer

	platform *Platform
	device   *device.Device
	// model is the decrypted network, nil for compiled (procvm) versions,
	// whose artifact is the module in `compiled` instead.
	model     *nn.Network
	compiled  *procvm.Module
	run       offload.Executable
	policy    selector.Policy
	watermark string
	pre       *procvm.Module
	post      *procvm.Module
	runtime   *procvm.Runtime

	// prev is the previous image (one-deep history, like an A/B flash
	// slot): Rollback restores it without re-downloading anything.
	prev *image

	mu sync.Mutex

	// Verified-billing attestor state (billing.go): the proved layer
	// snapshot from the registry artifact and per-charge retained
	// evidence. retained is non-nil iff verified billing is on.
	attWq      []int32
	attK, attN int
	attModelID string
	retained   map[uint64]retainedCharge

	// Reusable serving buffers (guarded by d.mu): the admitted-row feature
	// slab, per-row bookkeeping, the input tensor header over the slab and
	// the argmax outputs. Together with the arena-borrowed model scratch
	// they make the steady-state batch path allocation-free apart from the
	// per-call result slice the API returns.
	batchFeats  []float32
	batchAdm    []admitted
	batchLabels []int
	inHdr       *tensor.Tensor

	tick        uint64
	window      uint32
	winCount    uint32
	winDenied   uint32
	winFailed   uint32 // post-gate inference failures (battery, pipeline)
	winLatency  observe.Welford
	winEnergyMJ float64
	featStats   []observe.Welford
}

// admitted is one InferBatch row that cleared the metering and device
// gates (declared at package scope so the deployment can keep a reusable
// slice of them).
type admitted struct {
	idx int
	lat time.Duration
}

// ErrQueryDenied wraps metering denial at the inference entry point.
var ErrQueryDenied = errors.New("core: query denied by meter")

// acquireArena borrows a worker arena from the platform pool (nil for
// deployments constructed without a platform, e.g. in tests — the
// executable then runs on one-shot scratch).
func (d *Deployment) acquireArena() *engine.Arena {
	if d.platform == nil {
		return nil
	}
	return d.platform.arenas.Acquire()
}

func (d *Deployment) releaseArena(ar *engine.Arena) {
	if ar != nil {
		d.platform.arenas.Release(ar)
	}
}

// inputView wraps features in the deployment's cached [rows, dim] header,
// reusing the feature slab so the steady state allocates nothing.
func (d *Deployment) inputView(rows, dim int) *tensor.Tensor {
	if h := d.inHdr; h != nil && h.Dim(0) == rows && h.Dim(1) == dim {
		h.Data = d.batchFeats[:rows*dim]
		return h
	}
	d.inHdr = tensor.FromSlice(d.batchFeats[:rows*dim], rows, dim)
	return d.inHdr
}

// InferenceResult is one query's outcome.
type InferenceResult struct {
	// Label is the predicted class (post-module output if one is bound,
	// otherwise the logits argmax).
	Label int
	// Latency is the modeled on-device execution time.
	Latency time.Duration
	// DriftAlarm reports whether the monitor has latched.
	DriftAlarm bool
}

// admitLocked runs the front half of the serving pipeline shared by every
// query path (local, batched admission, offloaded): advance the device
// tick, charge the prepaid meter (offline enforcement, §III-C — a denial
// costs the device nothing), run the portable preprocessing module
// (§III-A / §IV) and feed the drift monitor (§III-B). Post-gate failures
// count toward window health: a version that cannot serve queries must
// look unhealthy to a rollout gate. Caller holds d.mu.
func (d *Deployment) admitLocked(x []float32) ([]float32, error) {
	d.tick++
	seq, err := d.Meter.ChargeSeq(d.tick)
	if err != nil {
		d.device.DenyQuery()
		d.winDenied++
		return nil, fmt.Errorf("%w: %v", ErrQueryDenied, err)
	}
	features := x
	if d.pre != nil {
		res, err := d.runtime.Run(d.pre, x)
		if err != nil {
			d.winFailed++
			d.retainLocked(seq, nil)
			return nil, fmt.Errorf("core: preprocess: %w", err)
		}
		if !res.Output.IsVec {
			d.winFailed++
			d.retainLocked(seq, nil)
			return nil, fmt.Errorf("core: preprocess must produce a vector")
		}
		features = res.Output.Vec
	}
	if d.Monitor != nil {
		d.Monitor.Observe(features)
	}
	// Every charged sequence keeps evidence — even if a later pipeline
	// stage fails, the charge stands and must stay provable.
	d.retainLocked(seq, features)
	return features, nil
}

// postLabelLocked applies the optional postprocessing module to one
// query's logits, falling back to the given argmax label. Caller holds
// d.mu.
func (d *Deployment) postLabelLocked(logits []float32, label int) (int, error) {
	if d.post == nil {
		return label, nil
	}
	res, err := d.runtime.Run(d.post, logits)
	if err != nil {
		d.winFailed++
		return 0, fmt.Errorf("core: postprocess: %w", err)
	}
	if res.Output.IsVec {
		d.winFailed++
		return 0, fmt.Errorf("core: postprocess must reduce to a scalar label")
	}
	return int(res.Output.Scalar), nil
}

// recordServedLocked accounts one fully served query into the open
// telemetry window (aggregates only; the input never leaves). Caller
// holds d.mu.
func (d *Deployment) recordServedLocked(features []float32, lat time.Duration, energyMJ float64) {
	d.winCount++
	d.winLatency.Add(float64(lat.Nanoseconds()) / 1e3) // fractional µs; MCU-class inferences can be sub-µs in the model
	d.winEnergyMJ += energyMJ
	if d.featStats == nil {
		d.featStats = make([]observe.Welford, len(features))
	}
	for i := range features {
		if i < len(d.featStats) {
			d.featStats[i].Add(float64(features[i]))
		}
	}
}

// Infer runs one metered, monitored query through the deployed pipeline.
func (d *Deployment) Infer(x []float32) (InferenceResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Metering gate, preprocessing, drift observation.
	features, err := d.admitLocked(x)
	if err != nil {
		return InferenceResult{}, err
	}

	// Inference on the device cost model, charged at the bit width of the
	// kernels that actually execute (native integer or float/emulated).
	lat, err := d.device.RunInference(d.Version.Metrics.MACs, d.run.Bits())
	if err != nil {
		d.winFailed++
		return InferenceResult{}, fmt.Errorf("core: device: %w", err)
	}
	d.batchFeats = append(d.batchFeats[:0], features...)
	in := d.inputView(1, len(features))
	ar := d.acquireArena()
	logits := d.forwardLocked(in, ar)
	d.releaseArena(ar)

	// Postprocessing and telemetry accounting.
	if cap(d.batchLabels) < 1 {
		d.batchLabels = make([]int, 1)
	}
	d.batchLabels = d.batchLabels[:1]
	logits.ArgMaxRowsInto(d.batchLabels)
	label, err := d.postLabelLocked(logits.Data, d.batchLabels[0])
	if err != nil {
		return InferenceResult{}, err
	}
	d.recordServedLocked(features, lat, d.device.Caps.InferenceEnergy(d.Version.Metrics.MACs)*1e3)

	drift := d.Monitor != nil && d.Monitor.Drifted()
	return InferenceResult{Label: label, Latency: lat, DriftAlarm: drift}, nil
}

// BatchOutcome is one query's outcome within InferBatch.
type BatchOutcome struct {
	Result InferenceResult
	Err    error
}

// InferBatch runs a burst of queries through the deployed pipeline with a
// single batched forward pass over the rows that clear the metering and
// device gates. Per-query metering, drift observation, device energy and
// telemetry accounting are identical to calling Infer row by row, and the
// predicted labels are bit-identical (ForwardBatch preserves accumulation
// order); the one visible difference is that DriftAlarm reflects the
// monitor state at the end of the burst, since all rows are observed
// before the shared compute. Reusable scratch buffers make the steady
// state allocate O(batch) instead of O(batch × layers).
func (d *Deployment) InferBatch(rows [][]float32) []BatchOutcome {
	out := make([]BatchOutcome, len(rows))
	if len(rows) == 0 {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	adm := d.batchAdm[:0]
	d.batchFeats = d.batchFeats[:0]
	fdim := -1
	for qi, x := range rows {
		d.tick++
		seq, err := d.Meter.ChargeSeq(d.tick)
		if err != nil {
			d.device.DenyQuery()
			d.winDenied++
			out[qi].Err = fmt.Errorf("%w: %v", ErrQueryDenied, err)
			continue
		}
		features := x
		if d.pre != nil {
			res, err := d.runtime.Run(d.pre, x)
			if err != nil {
				d.winFailed++
				d.retainLocked(seq, nil)
				out[qi].Err = fmt.Errorf("core: preprocess: %w", err)
				continue
			}
			if !res.Output.IsVec {
				d.winFailed++
				d.retainLocked(seq, nil)
				out[qi].Err = fmt.Errorf("core: preprocess must produce a vector")
				continue
			}
			features = res.Output.Vec
		}
		// Charged sequences keep evidence regardless of how the rest of
		// the pipeline fares — mirror of admitLocked.
		d.retainLocked(seq, features)
		if fdim < 0 {
			fdim = len(features)
		}
		if len(features) != fdim {
			d.winFailed++
			out[qi].Err = fmt.Errorf("core: feature width %d differs from batch width %d", len(features), fdim)
			continue
		}
		if d.Monitor != nil {
			d.Monitor.Observe(features)
		}
		lat, err := d.device.RunInference(d.Version.Metrics.MACs, d.run.Bits())
		if err != nil {
			d.winFailed++
			out[qi].Err = fmt.Errorf("core: device: %w", err)
			continue
		}
		d.batchFeats = append(d.batchFeats, features...)
		adm = append(adm, admitted{idx: qi, lat: lat})
	}
	d.batchAdm = adm
	if len(adm) == 0 {
		return out
	}

	ar := d.acquireArena()
	logits := d.forwardLocked(d.inputView(len(adm), fdim), ar)
	d.releaseArena(ar)
	if cap(d.batchLabels) < len(adm) {
		d.batchLabels = make([]int, len(adm))
	}
	labels := d.batchLabels[:len(adm)]
	logits.ArgMaxRowsInto(labels)
	cols := logits.Dim(1)
	drift := d.Monitor != nil && d.Monitor.Drifted()
	for bi, a := range adm {
		label := labels[bi]
		if d.post != nil {
			res, err := d.runtime.Run(d.post, append([]float32(nil), logits.Data[bi*cols:(bi+1)*cols]...))
			if err != nil {
				d.winFailed++
				out[a.idx].Err = fmt.Errorf("core: postprocess: %w", err)
				continue
			}
			if res.Output.IsVec {
				d.winFailed++
				out[a.idx].Err = fmt.Errorf("core: postprocess must reduce to a scalar label")
				continue
			}
			label = int(res.Output.Scalar)
		}
		// Telemetry accounting, like Infer's, covers only queries the full
		// pipeline served; row order keeps the Welford states identical to
		// the serial path's.
		row := d.batchFeats[bi*fdim : (bi+1)*fdim]
		d.winCount++
		d.winLatency.Add(float64(a.lat.Nanoseconds()) / 1e3)
		d.winEnergyMJ += d.device.Caps.InferenceEnergy(d.Version.Metrics.MACs) * 1e3
		if d.featStats == nil {
			d.featStats = make([]observe.Welford, len(row))
		}
		for i := range row {
			if i < len(d.featStats) {
				d.featStats[i].Add(float64(row[i]))
			}
		}
		out[a.idx].Result = InferenceResult{Label: label, Latency: a.lat, DriftAlarm: drift}
	}
	return out
}

// rollWindow closes the current telemetry window into the buffer.
func (d *Deployment) rollWindow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rollWindowLocked()
}

// rollWindowLocked is rollWindow for callers already holding d.mu (the
// update path rolls the window at every version boundary so post-update
// health never mixes with the old version's traffic).
func (d *Deployment) rollWindowLocked() {
	if d.winCount == 0 && d.winDenied == 0 && d.winFailed == 0 {
		return
	}
	rec := observe.Record{
		DeviceID:      d.DeviceID,
		Window:        d.window,
		Inferences:    d.winCount,
		Denied:        d.winDenied,
		MeanLatencyUS: float32(d.winLatency.Mean()),
		MaxLatencyUS:  float32(d.winLatency.Max()),
		EnergyMJ:      float32(d.winEnergyMJ),
	}
	if d.Monitor != nil {
		rec.DriftScore = float32(d.Monitor.MaxScore())
		rec.DriftAlarm = d.Monitor.Drifted()
	}
	for i := range d.featStats {
		rec.FeatureMeans = append(rec.FeatureMeans, float32(d.featStats[i].Mean()))
		rec.FeatureStds = append(rec.FeatureStds, float32(d.featStats[i].Std()))
	}
	d.Buffer.Add(rec)
	d.window++
	d.winCount, d.winDenied, d.winFailed = 0, 0, 0
	d.winLatency.Reset()
	d.winEnergyMJ = 0
	for i := range d.featStats {
		d.featStats[i].Reset()
	}
}

// Model exposes the deployed network for white-box operations (ownership
// verification in disputes). The caller must not mutate it. Compiled
// (procvm) deployments have no network; they return nil — see
// CompiledModule.
func (d *Deployment) Model() *nn.Network { return d.model }

// CompiledModule returns the procvm module serving this deployment, nil
// for network-backed deployments.
func (d *Deployment) CompiledModule() *procvm.Module {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compiled
}

// ReferenceLogits runs the deployment's serving executable on one input
// row without metering, telemetry or pipeline stages — the bit-exact
// reference a conformance check compares any other serving path (batched,
// offloaded, enclave-hosted) against. It is read-only on model state.
func (d *Deployment) ReferenceLogits(x []float32) []float32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	in := tensor.FromSlice(append([]float32(nil), x...), 1, len(x))
	ar := d.acquireArena()
	out := append([]float32(nil), d.forwardLocked(in, ar).Data...)
	d.releaseArena(ar)
	return out
}

// ExecutionScheme reports the weight precision of the kernels actually
// serving this deployment: the variant's integer scheme when the device
// executes the QModel natively, Float32 when the float engine serves it
// (float bases, and integer variants falling back to fake-quantized float
// on hardware without the bit width).
func (d *Deployment) ExecutionScheme() quant.Scheme {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.run.Scheme()
}

// executable returns the executable serving this deployment — what an
// offload session runs its device half on, under the same lock.
func (d *Deployment) executable() offload.Executable {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.run
}

// forwardLocked runs the whole serving executable on a [rows, features]
// batch with scratch borrowed from ar. The result aliases scratch; the
// caller consumes it before the next call. A compiled module's
// compile-time gate proved its bytecode bit-identical to the network it
// was lowered from, so a run failure means corrupted state and panics
// like the nn kernels do. Caller holds d.mu.
func (d *Deployment) forwardLocked(x *tensor.Tensor, ar *engine.Arena) *tensor.Tensor {
	out, err := d.run.Forward(x, 0, d.run.Stages(), ar)
	if err != nil {
		panic(fmt.Sprintf("core: deployment %s: %v", d.DeviceID, err))
	}
	return out
}

// Device returns the underlying simulated device.
func (d *Deployment) Device() *device.Device { return d.device }

// Watermarked reports whether a per-customer watermark was embedded into
// the deployed copy — such copies intentionally differ from the registry
// artifact, so a bit-exactness audit must skip them.
func (d *Deployment) Watermarked() bool { return d.watermark != "" }

// StateSnapshot returns the live version, model and watermark flag under
// the deployment lock — the auditor's consistent read. The returned model
// must not be mutated; updates swap the pointer rather than editing in
// place, so the snapshot stays coherent even if an update lands after.
func (d *Deployment) StateSnapshot() (*registry.ModelVersion, *nn.Network, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Version, d.model, d.watermark != ""
}

// CurrentWindow returns the index of the open telemetry window. Every
// record this deployment has ever emitted carries a strictly smaller
// index — the monotonicity invariant the fleet auditor checks.
func (d *Deployment) CurrentWindow() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.window
}
