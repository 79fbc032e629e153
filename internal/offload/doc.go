// Package offload executes the edge–cloud model splits that
// internal/market plans — the §IV story that fragmented edge hardware
// forces partitioned execution: run the first layers on-device, ship the
// boundary activation, finish in the cloud.
//
// The paper treats the cut point as an operational concern, so this
// package is a serving runtime, not a calculator. A Session owns one
// device's split: it charges prefix compute and radio to the device cost
// model and every query to the prepaid meter (offloading never escapes
// pay-per-query), serializes the boundary activation through its
// executable's codec, and — because the split shares the monolithic
// model's exact floating-point operations — answers bit-identically to a
// full on-device forward pass no matter where the cut lands or whether
// the network failed it back to the edge. A CloudTier is the vendor-side half: a
// bounded admission queue that coalesces concurrent suffix requests of
// the same (version, cut) class into single ForwardBatch calls, drains
// tenants round-robin so no device starves, and sheds under overload —
// shed queries retry on the engine's deterministic backoff and finish
// locally if the cloud stays saturated.
//
// A Replanner closes the loop: it watches live bandwidth, battery and
// cloud queue depth, re-runs market.BestSplit when conditions drift past
// its trigger thresholds, and moves the cut only for a MinGain predicted
// improvement — two-stage hysteresis, so the fault plane's weather
// migrates the cut without making it flap.
//
// Every served form runs behind one Executable: Float (an nn.Network),
// Quant (a QModel on the integer kernels), Module (a compiled procvm
// module, one opaque stage) and Protected (an enclave-hosted network or
// module). Deployment serving, the Session's device half and the
// CloudTier's suffix batches all call the same Forward over a stage range
// with arena scratch, and CloudTier.Register takes any of them. The
// executable's Codec is its boundary wire format: float executables ship
// the tensor codec; integer ones ship int8 codes plus a per-example scale
// (the strict QAB1 codec) and the cloud resumes the same integer kernels
// from the codes, so the split stays bit-identical to the device's own
// quantized forward. A Protected executable keeps the watermarked
// per-device copy or the compiled module inside the enclave session —
// the plaintext never exists cloud-side outside it — and charges every
// query the enclave's measured slowdown. A module's only split is
// all-local versus whole-module remote execution (cut 0).
package offload
