package core

import (
	"errors"
	"fmt"
	"time"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
)

// ErrDeltaBaseMissing reports that a delta transfer could not even be
// attempted because the registry no longer holds the artifact of the
// version the device is running — the base was evicted mid-rollout. The
// update surfaces it on the report's DeltaFallback and ships the full
// artifact instead (over the swarm when one is configured), so a wave
// with a pruned base degrades to full transfers rather than wedging.
var ErrDeltaBaseMissing = errors.New("core: delta base artifact missing")

// UpdateOptions controls one deployment update.
type UpdateOptions struct {
	// Calibration recalibrates the drift monitor for the new version; nil
	// keeps the existing monitor and resets its detection state. Its
	// statistics are computed once per call (once per Rollout when the
	// update is part of one).
	Calibration *dataset.Dataset
	// ForceFull disables delta transfer (used to measure the saving).
	ForceFull bool
	// Swarm, when non-nil, sources the transfer's bytes peer-to-peer: the
	// chosen artifact (or its delta) ships as hash-verified chunks from the
	// wave's seeders, with the registry as seeder of last resort, and the
	// device registers as a pending seeder on success. See internal/swarm.
	Swarm *swarm.Swarm

	// calib is Calibration's statistics, computed once by Rollout for all
	// of its updates; nil makes Update compute its own.
	calib *calibration
}

// UpdateReport accounts one update (or rollback): what moved, how it was
// shipped, and what a full transfer would have cost.
type UpdateReport struct {
	DeviceID string
	From, To *registry.ModelVersion
	// UsedDelta reports whether a sparse weight delta was shipped.
	UsedDelta bool
	// ShipBytes went over the radio; FlashBytes were rewritten on device.
	ShipBytes, FlashBytes int64
	// FullBytes is what a full-artifact transfer ships (To's packed size),
	// the denominator of the delta saving.
	FullBytes int64
	// TransferTime is the modeled download+flash duration.
	TransferTime time.Duration
	// ChangedParams/TotalParams summarize delta sparsity (0 for full).
	ChangedParams, TotalParams int
	// PeerBytes/RegistryBytes split a swarm transfer's radio bytes by
	// serving side (both zero on registry-direct transfers).
	PeerBytes, RegistryBytes int64
	// DeltaFallback, when non-nil, explains why a delta-eligible update
	// shipped the full artifact instead of failing: it wraps
	// ErrDeltaBaseMissing when the registry evicted the base image
	// mid-rollout. The update itself succeeded.
	DeltaFallback error
}

// Health returns the deployment's live-window telemetry summary: queries
// served and denied since the last window roll, mean modeled latency, and
// the drift monitor state. The update path rolls the window at every
// version boundary, so after an update this reads the new version's
// behavior only — exactly what a rollout gate needs.
func (d *Deployment) Health() rollout.Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := rollout.Health{
		Inferences:    uint64(d.winCount),
		Errors:        uint64(d.winDenied) + uint64(d.winFailed),
		MeanLatencyUS: d.winLatency.Mean(),
	}
	if d.Monitor != nil {
		h.DriftAlarm = d.Monitor.Drifted()
		h.DriftScore = d.Monitor.MaxScore()
	}
	return h
}

// Update moves the deployment to the target version's family: it re-runs
// variant selection over the target and its derived variants for this
// device's current context, ships the chosen artifact — as a sparse weight
// delta when the topology matches the running model, the full encrypted
// image otherwise — and hot-swaps the model. The prepaid meter and the
// telemetry buffer survive the swap (the voucher prepays queries, not a
// version); the telemetry window rolls so post-update health is clean; the
// drift monitor is recalibrated from opts.Calibration or reset. The prior
// image is kept for Rollback.
func (d *Deployment) Update(target *registry.ModelVersion, opts UpdateOptions) (*UpdateReport, error) {
	if d.platform == nil {
		return nil, fmt.Errorf("core: deployment %s is not platform-managed", d.DeviceID)
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil update target")
	}
	p := d.platform
	cal := opts.calib
	if cal == nil && opts.Calibration != nil {
		var err error
		if cal, err = newCalibration(opts.Calibration); err != nil {
			return nil, err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	// Re-run variant selection among the target's family: the paper's
	// point that every update re-decides per device (§III-A).
	candidates := append([]*registry.ModelVersion{target}, p.Registry.Variants(target.ID)...)
	decision, err := selector.Select(d.device, candidates, d.policy)
	if err != nil {
		return nil, fmt.Errorf("core: update select for %s: %w", d.DeviceID, err)
	}
	chosen := decision.Chosen.Version
	rep := &UpdateReport{
		DeviceID:  d.DeviceID,
		From:      d.Version,
		To:        chosen,
		FullBytes: int64(chosen.Metrics.SizeBytes),
	}
	if chosen.ID == d.Version.ID {
		// Content-addressed no-op: the device already runs these bytes, so
		// nothing ships and the rollback image is untouched — but the
		// window still rolls and the monitor still recalibrates/resets,
		// so a gate judging this device sees post-update traffic only,
		// never a stale alarm from before the rollout.
		d.rollWindowLocked()
		if cal != nil {
			mon, merr := cal.monitor()
			if merr != nil {
				return nil, merr
			}
			d.Monitor = mon
		} else if d.Monitor != nil {
			d.Monitor.Reset()
		}
		// The device holds these exact bytes, so it can seed them.
		if opts.Swarm != nil && d.watermark == "" {
			opts.Swarm.AddSeeder("full:"+chosen.ID, d.DeviceID)
		}
		return rep, nil
	}

	// Compiled (procvm) targets take their own ship path: bytecode has no
	// weight topology to diff, so delta never applies, and watermarks never
	// apply (the obfuscation is the protection) — a watermarked cohort
	// cannot cross into the compiled kind without losing its mark.
	if chosen.Kind == registry.KindProcVM {
		if d.watermark != "" {
			return nil, fmt.Errorf("core: watermarked deployment %s cannot update to compiled module %s", d.DeviceID, chosen.ID)
		}
		var compiled *procvm.Module
		if opts.Swarm != nil {
			data, ts, serr := opts.Swarm.Transfer(d.device, "full:"+chosen.ID, 0)
			if serr != nil {
				return nil, fmt.Errorf("core: swarm ship to %s: %w", d.DeviceID, serr)
			}
			compiled, err = procvm.DecodeModule(data)
			if err != nil {
				return nil, err
			}
			rep.ShipBytes = ts.TotalBytes
			rep.FlashBytes = ts.TotalBytes
			rep.TransferTime = ts.Duration
			rep.PeerBytes = ts.FromPeers
			rep.RegistryBytes = ts.FromRegistry
		} else {
			var dur time.Duration
			compiled, dur, err = p.shipCompiled(d.device, chosen)
			if err != nil {
				return nil, err
			}
			rep.ShipBytes = int64(chosen.Metrics.SizeBytes)
			rep.FlashBytes = int64(chosen.Metrics.SizeBytes)
			rep.TransferTime = dur
		}
		if err := d.swapLocked(chosen, nil, compiled, cal); err != nil {
			return nil, err
		}
		if opts.Swarm != nil {
			opts.Swarm.AddSeeder("full:"+chosen.ID, d.DeviceID)
		}
		return rep, nil
	}

	var model *nn.Network
	// Delta transfer requires the on-device weights to be bit-identical to
	// the registry's stored artifact; a per-customer watermark perturbs
	// them, so watermarked deployments always ship full images. A compiled
	// image holds no float weights at all, so a compiled→network update is
	// always a full ship too.
	if !opts.ForceFull && d.watermark == "" && d.model != nil {
		if opts.Swarm != nil {
			model, err = d.trySwarmDeltaLocked(opts.Swarm, chosen, rep)
		} else {
			model, err = d.tryDeltaLocked(chosen, rep)
		}
		if err != nil {
			return nil, err
		}
	}
	if model == nil {
		if opts.Swarm != nil {
			model, err = p.swarmShipFull(opts.Swarm, d.device, chosen, rep)
			if err != nil {
				return nil, err
			}
		} else {
			var dur time.Duration
			model, dur, err = p.shipFull(d.device, chosen)
			if err != nil {
				return nil, err
			}
			rep.ShipBytes = int64(chosen.Metrics.SizeBytes)
			rep.FlashBytes = int64(chosen.Metrics.SizeBytes)
			rep.TransferTime = dur
		}
		if d.watermark != "" {
			if err := p.embedWatermark(model, chosen.ID, d.DeviceID, d.watermark); err != nil {
				return nil, err
			}
		}
	}
	if err := d.swapLocked(chosen, model, nil, cal); err != nil {
		return nil, err
	}
	// The swap succeeded: the device now holds the canonical artifact (and,
	// if it took a delta, the delta bytes it staged), so register it as a
	// pending seeder — visible to fetchers at the next wave promotion.
	// Watermarked copies are perturbed per customer and never seed.
	if opts.Swarm != nil && d.watermark == "" {
		if rep.UsedDelta {
			opts.Swarm.AddSeeder("delta:"+rep.From.ID+">"+chosen.ID, d.DeviceID)
		}
		opts.Swarm.AddSeeder("full:"+chosen.ID, d.DeviceID)
	}
	return rep, nil
}

// tryDeltaLocked attempts a delta transfer to the chosen version, filling
// rep and returning the patched model on success. A nil model (with nil
// error) means the caller must ship the full artifact: the versions do not
// share a topology, or the delta would not beat the packed image — a full
// retrain degrades to a dense delta whose index overhead can exceed what
// it patches. Caller holds d.mu.
func (d *Deployment) tryDeltaLocked(chosen *registry.ModelVersion, rep *UpdateReport) (*nn.Network, error) {
	p := d.platform
	delta, err := p.Registry.Delta(d.Version.ID, chosen.ID)
	if err != nil {
		// Different topology: expected, a full transfer is simply the plan.
		// A missing base artifact (evicted mid-rollout) is surfaced as a
		// typed fallback so callers can tell pruning from topology — the
		// wave degrades to full transfers instead of wedging.
		if errors.Is(err, registry.ErrArtifactMissing) {
			rep.DeltaFallback = fmt.Errorf("%w: %w", ErrDeltaBaseMissing, err)
		}
		return nil, nil
	}
	cost, err := nn.CostOfDelta(delta, chosen.Scheme.Bits())
	if err != nil {
		return nil, err
	}
	if cost.ShipBytes >= chosen.Metrics.SizeBytes {
		return nil, nil // dense delta, not worth shipping
	}
	em, err := ipprot.EncryptModel(p.vendorKey, chosen.ID, delta)
	if err != nil {
		return nil, err
	}
	// The token names the exact patch (source and target bytes): a crash
	// mid-flash leaves a recoverable staging slot, and a retried update
	// that selects the same transition resumes it instead of starting
	// over. A different transition discards the stale slot.
	token := "delta:" + d.Version.ID + ">" + chosen.ID
	dur, err := d.device.InstallResumable(token, int64(cost.ShipBytes), int64(cost.FlashBytes))
	if err != nil {
		return nil, fmt.Errorf("core: ship delta to %s: %w", d.DeviceID, err)
	}
	plain, err := ipprot.DecryptModel(p.vendorKey, em)
	if err != nil {
		return nil, err
	}
	model, err := nn.ApplyDelta(d.model, plain)
	if err != nil {
		return nil, fmt.Errorf("core: apply delta on %s: %w", d.DeviceID, err)
	}
	rep.UsedDelta = true
	rep.ShipBytes = int64(cost.ShipBytes)
	rep.FlashBytes = int64(cost.FlashBytes)
	rep.TransferTime = dur
	rep.ChangedParams, rep.TotalParams = cost.ChangedParams, cost.TotalParams
	return model, nil
}

// trySwarmDeltaLocked is tryDeltaLocked's peer-to-peer counterpart: the
// same delta-worthwhile decision, but the encoded delta ships as
// hash-verified chunks from the wave's seeders (devices that already took
// this exact transition hold its bytes) instead of an encrypted
// registry-direct stream. The swarm moves canonical plaintext bytes — the
// chunk hashes content-address the real artifact — so no envelope
// encryption applies here. Caller holds d.mu.
func (d *Deployment) trySwarmDeltaLocked(sw *swarm.Swarm, chosen *registry.ModelVersion, rep *UpdateReport) (*nn.Network, error) {
	p := d.platform
	delta, err := p.Registry.Delta(d.Version.ID, chosen.ID)
	if err != nil {
		if errors.Is(err, registry.ErrArtifactMissing) {
			rep.DeltaFallback = fmt.Errorf("%w: %w", ErrDeltaBaseMissing, err)
		}
		return nil, nil // full (swarm) transfer
	}
	cost, err := nn.CostOfDelta(delta, chosen.Scheme.Bits())
	if err != nil {
		return nil, err
	}
	if cost.ShipBytes >= chosen.Metrics.SizeBytes {
		return nil, nil // dense delta, not worth shipping
	}
	key := "delta:" + d.Version.ID + ">" + chosen.ID
	data, ts, err := sw.Transfer(d.device, key, int64(cost.FlashBytes))
	if err != nil {
		return nil, fmt.Errorf("core: swarm delta to %s: %w", d.DeviceID, err)
	}
	model, err := nn.ApplyDelta(d.model, data)
	if err != nil {
		return nil, fmt.Errorf("core: apply delta on %s: %w", d.DeviceID, err)
	}
	rep.UsedDelta = true
	rep.ShipBytes = ts.TotalBytes
	rep.FlashBytes = int64(cost.FlashBytes)
	rep.TransferTime = ts.Duration
	rep.PeerBytes = ts.FromPeers
	rep.RegistryBytes = ts.FromRegistry
	rep.ChangedParams, rep.TotalParams = cost.ChangedParams, cost.TotalParams
	return model, nil
}

// swarmShipFull ships a full artifact over the swarm: hash-verified chunks
// from the wave's seeders with the registry as seeder of last resort,
// reusing the same staging-slot discipline as shipFull so an interrupted
// transfer resumes from the exact byte on retry.
func (p *Platform) swarmShipFull(sw *swarm.Swarm, dev *device.Device, v *registry.ModelVersion, rep *UpdateReport) (*nn.Network, error) {
	data, ts, err := sw.Transfer(dev, "full:"+v.ID, 0)
	if err != nil {
		return nil, fmt.Errorf("core: swarm ship to %s: %w", dev.ID, err)
	}
	model, err := nn.UnmarshalNetwork(data)
	if err != nil {
		return nil, err
	}
	rep.ShipBytes = ts.TotalBytes
	rep.FlashBytes = ts.TotalBytes
	rep.TransferTime = ts.Duration
	rep.PeerBytes = ts.FromPeers
	rep.RegistryBytes = ts.FromRegistry
	return model, nil
}

// Rollback reverts the deployment to the image it ran before the last
// Update — no transfer, the prior generation is still in the B slot. The
// meter and telemetry buffer are preserved; the telemetry window rolls;
// the restored monitor is reset so stale alarms do not re-fire. A second
// rollback without an intervening update fails.
func (d *Deployment) Rollback() (*UpdateReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prev == nil {
		return nil, fmt.Errorf("core: deployment %s has no previous image", d.DeviceID)
	}
	rep := &UpdateReport{DeviceID: d.DeviceID, From: d.Version, To: d.prev.version}
	d.rollWindowLocked()
	d.Version, d.model, d.compiled, d.Monitor = d.prev.version, d.prev.model, d.prev.compiled, d.prev.monitor
	d.prev = nil
	if d.Monitor != nil {
		d.Monitor.Reset()
	}
	// Re-derive the executable from the restored image: an integer variant
	// goes back onto the integer kernels with fresh scratch, a compiled
	// image back onto the VM.
	d.run = newExecutable(d.device, d.Version, d.model, d.compiled)
	if d.retained != nil {
		if err := d.refreshAttestorLocked(); err != nil {
			return nil, err
		}
	}
	d.featStats = nil
	return rep, nil
}

// swapLocked installs (version, model-or-module) as the live image, saving
// the old one for rollback. Exactly one of m and mod is non-nil, matching
// the version's kind. Caller holds d.mu.
func (d *Deployment) swapLocked(v *registry.ModelVersion, m *nn.Network, mod *procvm.Module, cal *calibration) error {
	d.rollWindowLocked()
	d.prev = &image{version: d.Version, model: d.model, compiled: d.compiled, monitor: d.Monitor}
	d.Version = v
	d.model = m
	d.compiled = mod
	// The registry artifact stays the source of truth: deltas patched the
	// float model, and the executable (QModel included) is re-instantiated
	// from the result.
	d.run = newExecutable(d.device, v, m, mod)
	if d.retained != nil {
		if err := d.refreshAttestorLocked(); err != nil {
			return err
		}
	}
	if cal != nil {
		mon, err := cal.monitor()
		if err != nil {
			return err
		}
		d.Monitor = mon
	} else if d.Monitor != nil {
		// Same calibration, new version: clear the latch and statistics so
		// post-update health reflects the new model only. The rollback
		// image shares this monitor; Rollback resets it again.
		d.Monitor.Reset()
	}
	d.featStats = nil
	return nil
}

// shipFull encrypts a full artifact, transfers and flashes it on the
// device, and decrypts it back into a runnable network — the §V transfer
// path shared by Deploy and Update.
func (p *Platform) shipFull(dev *device.Device, v *registry.ModelVersion) (*nn.Network, time.Duration, error) {
	artifact, err := p.Registry.Bytes(v.ID)
	if err != nil {
		return nil, 0, err
	}
	em, err := ipprot.EncryptModel(p.vendorKey, v.ID, artifact)
	if err != nil {
		return nil, 0, err
	}
	// Content-addressed install token: an install of the same image that
	// crashed mid-flash resumes from its half-written slot on retry,
	// whether the caller was Deploy or Update.
	dur, err := dev.InstallResumable("full:"+v.ID, int64(v.Metrics.SizeBytes), int64(v.Metrics.SizeBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("core: ship to %s: %w", dev.ID, err)
	}
	plain, err := ipprot.DecryptModel(p.vendorKey, em)
	if err != nil {
		return nil, 0, err
	}
	model, err := nn.UnmarshalNetwork(plain)
	if err != nil {
		return nil, 0, err
	}
	return model, dur, nil
}

// shipCompiled is shipFull's counterpart for compiled procvm artifacts: the
// registry blob is the module's canonical PVM1 encoding, and the decode on
// the far side is strict, so a corrupted transfer fails here rather than at
// first inference. Delta transfer never applies — bytecode has no weight
// topology to diff — so every compiled ship is a full image.
func (p *Platform) shipCompiled(dev *device.Device, v *registry.ModelVersion) (*procvm.Module, time.Duration, error) {
	blob, err := p.Registry.Bytes(v.ID)
	if err != nil {
		return nil, 0, err
	}
	em, err := ipprot.EncryptModel(p.vendorKey, v.ID, blob)
	if err != nil {
		return nil, 0, err
	}
	dur, err := dev.InstallResumable("full:"+v.ID, int64(v.Metrics.SizeBytes), int64(v.Metrics.SizeBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("core: ship to %s: %w", dev.ID, err)
	}
	plain, err := ipprot.DecryptModel(p.vendorKey, em)
	if err != nil {
		return nil, 0, err
	}
	mod, err := procvm.DecodeModule(plain)
	if err != nil {
		return nil, 0, err
	}
	return mod, dur, nil
}

// embedWatermark stamps the customer identity into a deployed copy and
// records it in the registry (§V: per-user marks, keyed per device so
// parallel deploys stay deterministic).
func (p *Platform) embedWatermark(model *nn.Network, versionID, deviceID, owner string) error {
	capacity := watermarkCapacity(model)
	bits := ipprot.KeyedBits(owner, capacity)
	if err := ipprot.EmbedStatic(model, owner, bits, ipprot.DefaultStaticWMConfig()); err != nil {
		return fmt.Errorf("core: watermark: %w", err)
	}
	return p.Registry.SetTag(versionID, "watermark:"+deviceID, owner)
}
