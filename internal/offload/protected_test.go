package offload

import (
	"errors"
	"math"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// unmeteredSession builds an Exec-path session (no meter, upstream gate
// assumed) over the fixture's cloud and device.
func unmeteredSession(t *testing.T, cfg SessionConfig) *Session {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustQuant lowers net onto the integer kernels at scheme.
func mustQuant(t *testing.T, net *nn.Network, scheme quant.Scheme) Executable {
	t.Helper()
	e, err := Quant(net, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQuantSplitSessionBitExact runs an int8 session against a Quant
// executable registered in the cloud: the device quantizes its boundary
// into QAB1 codes, the cloud resumes on its own QModel, and the split
// answer must be bit-identical to the device's full integer forward. The
// local fallback (offline cut) must agree too.
func TestQuantSplitSessionBitExact(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 100)
	if err := f.cloud.Register("v1#q", mustQuant(t, f.model, quant.Int8)); err != nil {
		t.Fatal(err)
	}
	if !f.cloud.Registered("v1#q") {
		t.Fatal("quant entry not registered")
	}
	if f.cloud.Registered("missing") {
		t.Fatal("phantom registration")
	}
	f.cloud.Start()
	defer f.cloud.Close()

	qm, err := quant.NewQModel(f.model, quant.Int8)
	if err != nil {
		t.Fatal(err)
	}
	x := f.input(3)
	want := qm.ForwardBatch(tensor.FromSlice(append([]float32(nil), x...), 1, len(x)), quant.NewQScratch())

	plan := market.SplitPlan{Cut: 1} // snaps to a dense-stage boundary
	s := unmeteredSession(t, SessionConfig{
		VersionID: "v1#q", Device: f.dev, Exec: mustQuant(t, f.model, quant.Int8),
		Cloud: f.cloud, Plan: &plan, Replan: ReplanConfig{Disabled: true},
	})
	res, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSplit {
		t.Fatalf("mode %v, want split", res.Mode)
	}
	if !logitsEqual(res.Logits, want) {
		t.Fatalf("quant split %v != integer forward %v", res.Logits, want.Data)
	}
	// Offline: the session falls back to the integer kernels locally and
	// must produce the identical bits.
	f.dev.SetNet(device.Offline)
	res, err = s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode == ModeSplit {
		t.Fatal("offline query claimed a split")
	}
	if !logitsEqual(res.Logits, want) {
		t.Fatalf("quant fallback %v != integer forward %v", res.Logits, want.Data)
	}
	f.dev.SetNet(device.WiFi)
}

// TestProtectedSessionBitExact serves the suffix from an enclave-resident
// copy through a Protected executable and demands the split answer match the
// device's own forward bit-for-bit — protection must not perturb results.
func TestProtectedSessionBitExact(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 100)
	enc, err := enclave.New("prot-enclave", []byte("prot-test-root-key-0123456789abc"), 2)
	if err != nil {
		t.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	blob, err := f.model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := enc.Seal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esess.LoadSealedNetwork("copy", sealed); err != nil {
		t.Fatal(err)
	}
	prot := mustProtectedNet(t, esess, "copy")
	if err := f.cloud.Register("v1@dev", prot); err != nil {
		t.Fatal(err)
	}
	// Resolving an artifact the session does not hold must fail.
	if _, err := esess.Network("missing"); !errors.Is(err, enclave.ErrUnknownArtifact) {
		t.Fatalf("protected executable with no artifact: %v", err)
	}
	if _, err := Protected(nil, Float(f.model, 32)); err == nil {
		t.Fatal("built a protected executable without a session")
	}
	if _, err := Protected(esess, nil); err == nil {
		t.Fatal("built a protected executable without an executable")
	}
	if err := f.cloud.Register("", prot); err == nil {
		t.Fatal("registered without a version ID")
	}
	if err := f.cloud.Register("v1@nil", nil); err == nil {
		t.Fatal("registered without an executable")
	}
	f.cloud.Start()
	defer f.cloud.Close()

	x := f.input(5)
	want := f.expect(x)
	plan := market.SplitPlan{Cut: 2}
	s := unmeteredSession(t, SessionConfig{
		VersionID: "v1@dev", Device: f.dev, Exec: Float(f.model, 32),
		Cloud: f.cloud, Plan: &plan, Replan: ReplanConfig{Disabled: true},
	})
	res, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSplit {
		t.Fatalf("mode %v, want split", res.Mode)
	}
	if !logitsEqual(res.Logits, want) {
		t.Fatalf("protected split %v != forward %v", res.Logits, want.Data)
	}
}

// TestModuleSessionSplitAndLocal drives a compiled-module session through
// both of its modes: cut 0 ships the raw input for whole-module enclave
// execution, the all-local cut runs the module on the session's own
// gas-raised runtime — and both must agree bit-for-bit with a direct run.
func TestModuleSessionSplitAndLocal(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 100)
	mod, err := compat.CompileProcVM(f.model, compat.CompileOptions{Name: "mod"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := enclave.New("mod-enclave", []byte("mod-test-root-key-0123456789abcd"), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	sealed, err := enc.Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esess.LoadSealedModule("mod", sealed); err != nil {
		t.Fatal(err)
	}
	var macs int64
	for _, c := range mustSummary(t, f.model) {
		macs += c.Info.MACs
	}
	prot := mustProtectedMod(t, esess, "mod", macs)
	if err := f.cloud.Register("vm", prot); err != nil {
		t.Fatal(err)
	}
	if _, err := esess.Module("nope"); err == nil {
		t.Fatal("built a module executable with no artifact")
	}
	f.cloud.Start()
	defer f.cloud.Close()

	x := f.input(7)
	rt := procvm.NewRuntime(mod.Caps)
	if mod.GasLimit > rt.MaxGas {
		rt.MaxGas = mod.GasLimit
	}
	ref, err := rt.Run(mod, x)
	if err != nil {
		t.Fatal(err)
	}

	cloudPlan := market.SplitPlan{Cut: 0}
	s := unmeteredSession(t, SessionConfig{
		VersionID: "vm", Device: f.dev, Exec: Module(mod, mod.Caps, macs, []int{8}),
		Cloud: f.cloud, Plan: &cloudPlan, Replan: ReplanConfig{Disabled: true},
	})
	res, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSplit || res.Cut != 0 {
		t.Fatalf("mode %v cut %d, want whole-module split at cut 0", res.Mode, res.Cut)
	}
	if !vecBitsEqual(res.Logits, ref.Output.Vec) {
		t.Fatalf("enclave module %v != direct run %v", res.Logits, ref.Output.Vec)
	}

	localPlan := market.SplitPlan{Cut: 1}
	l := unmeteredSession(t, SessionConfig{
		VersionID: "vm", Device: f.dev, Exec: Module(mod, mod.Caps, macs, []int{8}),
		Cloud: f.cloud, Plan: &localPlan, Replan: ReplanConfig{Disabled: true},
	})
	res, err = l.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeLocal {
		t.Fatalf("mode %v, want local", res.Mode)
	}
	if !vecBitsEqual(res.Logits, ref.Output.Vec) {
		t.Fatalf("local module %v != direct run %v", res.Logits, ref.Output.Vec)
	}
	if got := res.Mode.String(); got != "local" {
		t.Fatalf("mode string %q", got)
	}
}

func mustSummary(t *testing.T, net *nn.Network) []nn.LayerCost {
	t.Helper()
	costs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return costs
}

func vecBitsEqual(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
