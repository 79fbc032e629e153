package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/market"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
)

// ErrOffloadStale is returned by OffloadSession.Infer after the underlying
// deployment moved to a different model version (an OTA update landed):
// the session's plan and the cloud's registered suffix no longer describe
// the device's model. Re-create the session against the new version.
var ErrOffloadStale = errors.New("core: offload session is stale (deployment was updated)")

// OffloadConfig controls Platform.Offload.
type OffloadConfig struct {
	// Cloud is the suffix-serving tier (required). The platform registers
	// the deployment's model version with it automatically.
	Cloud *offload.CloudTier
	// RTT is the fixed round-trip to the cloud used in planning (also the
	// default for Replan.RTT).
	RTT time.Duration
	// Retry bounds re-admission after cloud shedding.
	Retry engine.RetryPolicy
	// Replan tunes the live re-planning loop (hysteresis thresholds,
	// congestion penalty, energy objective).
	Replan offload.ReplanConfig
	// Plan, when non-nil, pins the initial cut instead of planning from
	// the device's current conditions.
	Plan *market.SplitPlan
	// Enclave, when non-nil, hosts protected suffix execution (watermarked
	// and compiled deployments) instead of the platform's lazily
	// provisioned shared session. Its enclave must be provisioned from the
	// platform vendor key — the manufacturer root the platform verifies
	// attestation reports against.
	Enclave *enclave.Session
}

// OffloadSession is a deployment serving queries through the split
// runtime: the metering gate, drift monitor, telemetry windows, and pre/
// post pipeline modules are the deployment's own — only the forward pass
// moves, executing under a live SplitPlan with cloud suffix service.
type OffloadSession struct {
	dep       *Deployment
	sess      *offload.Session
	versionID string
}

// OffloadOutcome is one offloaded query's result: the deployment-level
// view plus the split execution detail.
type OffloadOutcome struct {
	InferenceResult
	// Split records how the query actually executed (mode, cut, boundary
	// bytes, cloud batch, energy).
	Split offload.Result
}

// Offload opens a split-execution session on a live deployment: queries
// submitted through the session stay metered, monitored and telemetered
// exactly like Deployment.Infer, but the forward pass executes under a
// live SplitPlan — prefix on the device, suffix on cfg.Cloud — re-planned
// as bandwidth, battery and cloud congestion drift.
//
// Every variant kind splits: the device half runs on the deployment's own
// executable, the cloud half on the executable registered for the
// version, and every answer stays bit-identical to the device serving the
// query alone:
//
//   - Float deployments ship float boundary activations; the cloud serves
//     the registry artifact (bit-identical to the device's copy).
//   - Integer-native deployments ship int8 boundary codes plus a dynamic
//     per-example scale (the QAB1 codec); the cloud resumes the same
//     integer kernels at a dense-stage cut.
//   - Watermarked deployments seal their per-device marked copy into the
//     cloud enclave: the suffix executes inside the protected world (paying
//     its slowdown), so the mark never exists in cloud plaintext.
//   - Compiled (procvm) deployments seal the module into the enclave and
//     run it whole there when the plan offloads (cut 0).
//
// Each sealed artifact is attested at provisioning: the platform verifies
// the report against the vendor root key and the artifact digest before
// registering the entry.
func (p *Platform) Offload(deviceID string, cfg OffloadConfig) (*OffloadSession, error) {
	dep, ok := p.Deployment(deviceID)
	if !ok {
		return nil, fmt.Errorf("core: no deployment on device %q", deviceID)
	}
	if cfg.Cloud == nil {
		return nil, fmt.Errorf("core: offload needs a cloud tier")
	}
	version, model, watermarked := dep.StateSnapshot()
	compiled := dep.CompiledModule()
	// The session runs its device half on the deployment's own
	// executable: OffloadSession.Infer holds d.mu for the whole query, so
	// the sharing serializes with local serving.
	exec := dep.executable()
	execScheme := exec.Scheme()
	if watermarked && execScheme != quant.Float32 {
		return nil, fmt.Errorf("core: watermarked integer-native deployment on %s cannot offload (the enclave executes the float copy)", deviceID)
	}

	replan := cfg.Replan
	if replan.RTT == 0 {
		replan.RTT = cfg.RTT
	}
	scfg := offload.SessionConfig{
		Tenant: deviceID,
		Device: dep.device,
		Exec:   exec,
		Cloud:  cfg.Cloud,
		Retry:  cfg.Retry,
		Replan: replan,
		Plan:   cfg.Plan,
	}

	// register binds the session to the cloud entry under key and makes
	// that entry servable, building its executable only when the tier
	// lacks it — fleet-wide session setup registers each version once, not
	// per device.
	register := func(key string, build func() (offload.Executable, error)) error {
		scfg.VersionID = key
		if cfg.Cloud.Registered(key) {
			return nil
		}
		e, err := build()
		if err != nil {
			return err
		}
		return cfg.Cloud.Register(key, e)
	}
	var err error
	switch {
	case compiled != nil:
		// Obfuscated deployment: the module is sealed to the enclave and
		// executes whole in the protected world when the plan offloads.
		err = register(version.ID, func() (offload.Executable, error) {
			sess, err := p.enclaveSession(cfg)
			if err != nil {
				return nil, err
			}
			blob, err := p.Registry.Bytes(version.ID)
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			if err := p.provisionSealed(sess, version.ID, blob, true); err != nil {
				return nil, err
			}
			mod, err := sess.Module(version.ID)
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			return offload.Protected(sess, offload.Module(mod, mod.Caps, version.Metrics.MACs, nil))
		})
		if err != nil {
			return nil, err
		}
		// The module does not declare input geometry; the float artifact it
		// was lowered from does, so the device half runs the deployment's
		// module with that geometry attached.
		parent, err := p.Registry.Load(version.ParentID)
		if err != nil {
			return nil, fmt.Errorf("core: offload: %w", err)
		}
		scfg.Exec = offload.Module(compiled, procvm.CapSensor, version.Metrics.MACs, parent.InputShape)

	case watermarked:
		// The per-device marked copy is sealed to the enclave under a
		// per-device key: its suffix executes only inside the protected
		// world, so the split no longer breaks watermark protection.
		err = register(version.ID+"@"+deviceID, func() (offload.Executable, error) {
			sess, err := p.enclaveSession(cfg)
			if err != nil {
				return nil, err
			}
			blob, err := model.MarshalBinary()
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			key := version.ID + "@" + deviceID
			if err := p.provisionSealed(sess, key, blob, false); err != nil {
				return nil, err
			}
			net, err := sess.Network(key)
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			return offload.Protected(sess, offload.Float(net, version.Scheme.Bits()))
		})

	case execScheme != quant.Float32:
		// Integer-native deployment: the cloud lowers the registry artifact
		// onto the same integer kernels; boundaries cross as int8 codes.
		// The "#q" key keeps the quant entry distinct from any float entry
		// of the same version (devices without native support still split
		// in float).
		err = register(version.ID+"#q", func() (offload.Executable, error) {
			cloudModel, err := p.Registry.Load(version.ID)
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			return offload.Quant(cloudModel, execScheme)
		})

	default:
		// The cloud serves the registry's own artifact — for an
		// unwatermarked deployment that is bit-identical to the device's
		// decrypted copy.
		err = register(version.ID, func() (offload.Executable, error) {
			cloudModel, err := p.Registry.Load(version.ID)
			if err != nil {
				return nil, fmt.Errorf("core: offload: %w", err)
			}
			return offload.Float(cloudModel, version.Scheme.Bits()), nil
		})
	}
	if err != nil {
		return nil, err
	}

	// A session's first Infer would otherwise block forever on a tier
	// whose dispatchers were never launched — while holding the
	// deployment lock. Start is idempotent, so just ensure it.
	cfg.Cloud.Start()
	sess, err := offload.NewSession(scfg)
	if err != nil {
		return nil, err
	}
	return &OffloadSession{dep: dep, sess: sess, versionID: version.ID}, nil
}

// enclaveSession returns the session hosting protected suffix execution:
// the caller-supplied one, or the platform's shared cloud enclave session,
// provisioned on first use from the vendor key.
func (p *Platform) enclaveSession(cfg OffloadConfig) (*enclave.Session, error) {
	if cfg.Enclave != nil {
		return cfg.Enclave, nil
	}
	p.encMu.Lock()
	defer p.encMu.Unlock()
	if p.encSess == nil {
		enc, err := enclave.New("cloud-enclave", p.vendorKey, 1.2)
		if err != nil {
			return nil, fmt.Errorf("core: provision cloud enclave: %w", err)
		}
		p.encSess = enclave.NewSession(enc)
	}
	return p.encSess, nil
}

// provisionSealed seals an artifact into the enclave session under artID
// and verifies the attestation chain before anything serves from it: the
// loaded measurement must equal the artifact digest, and the session's
// report over it must verify against the vendor root. Sealing advances the
// enclave's monotonic counter, so it serializes under encMu.
func (p *Platform) provisionSealed(sess *enclave.Session, artID string, blob []byte, module bool) error {
	p.encMu.Lock()
	sealed, err := sess.Enclave().Seal(blob)
	p.encMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: seal %s: %w", artID, err)
	}
	var meas [32]byte
	if module {
		meas, err = sess.LoadSealedModule(artID, sealed)
	} else {
		meas, err = sess.LoadSealedNetwork(artID, sealed)
	}
	if err != nil {
		return fmt.Errorf("core: load sealed %s: %w", artID, err)
	}
	want := sha256.Sum256(blob)
	if meas != want {
		return fmt.Errorf("core: enclave measurement mismatch for %s", artID)
	}
	rep, err := sess.Attest(artID, want[:16])
	if err != nil {
		return fmt.Errorf("core: attest %s: %w", artID, err)
	}
	if !enclave.VerifyReport(p.vendorKey, rep) || rep.Measurement != want {
		return fmt.Errorf("core: attestation for %s failed verification", artID)
	}
	return nil
}

// Plan returns the split currently in force.
func (s *OffloadSession) Plan() market.SplitPlan { return s.sess.Plan() }

// Stats returns the session's split-execution counters.
func (s *OffloadSession) Stats() offload.Stats { return s.sess.Stats() }

// Deployment returns the deployment this session serves.
func (s *OffloadSession) Deployment() *Deployment { return s.dep }

// Infer runs one metered, monitored query through the split runtime. The
// pipeline is Deployment.Infer's, step for step — metering gate first (an
// exhausted voucher denies before any compute), portable preprocessing,
// drift observation, then the split forward pass instead of the local
// one, then postprocessing and telemetry accounting. The label and logits
// are bit-identical to what Deployment.Infer would produce, whichever
// mode the query executed in.
func (s *OffloadSession) Infer(x []float32) (OffloadOutcome, error) {
	d := s.dep
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Version.ID != s.versionID {
		return OffloadOutcome{}, fmt.Errorf("%w: %s is now on %s, session bound to %s",
			ErrOffloadStale, d.DeviceID, d.Version.ID, s.versionID)
	}
	// Metering gate (§III-C: offloading never escapes pay-per-query),
	// preprocessing, drift observation — the deployment's shared front
	// half.
	features, err := d.admitLocked(x)
	if err != nil {
		return OffloadOutcome{}, err
	}

	// Split execution under the live plan (replacing the local-only
	// forward). Device compute, radio and cloud service charge inside.
	res, err := s.sess.Exec(features)
	if err != nil {
		d.winFailed++
		return OffloadOutcome{}, fmt.Errorf("core: offload: %w", err)
	}

	// Postprocessing on the returned logits, then telemetry accounting —
	// energy is what the device actually spent (prefix + radio, or the
	// full pass when the plan stayed local).
	label, err := d.postLabelLocked(append([]float32(nil), res.Logits...), res.Label)
	if err != nil {
		return OffloadOutcome{}, err
	}
	d.recordServedLocked(features, res.Latency, res.DeviceEnergyJ*1e3)

	drift := d.Monitor != nil && d.Monitor.Drifted()
	return OffloadOutcome{
		InferenceResult: InferenceResult{Label: label, Latency: res.Latency, DriftAlarm: drift},
		Split:           res,
	}, nil
}
