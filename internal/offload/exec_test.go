package offload

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/enclave"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// execKind is one executable kind over the fixture model: the executable
// a device runs, registered in the fixture's cloud under version.
type execKind struct {
	name    string
	version string
	device  Executable
}

// reference is the kind's monolithic answer for one input row: a whole
// Forward on fresh scratch.
func (k execKind) reference(t *testing.T, x []float32) []float32 {
	t.Helper()
	in := tensor.FromSlice(append([]float32(nil), x...), 1, len(x))
	out, err := k.device.Forward(in, 0, k.device.Stages(), nil)
	if err != nil {
		t.Fatalf("%s: reference forward: %v", k.name, err)
	}
	return append([]float32(nil), out.Data...)
}

// sealedSession loads the fixture model and its compiled module into a
// fresh enclave session as "net" and "mod".
func sealedSession(t *testing.T, net *nn.Network, mod *procvm.Module) *enclave.Session {
	t.Helper()
	enc, err := enclave.New("exec-enclave", []byte("exec-test-root-key-0123456789abc"), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sess := enclave.NewSession(enc)
	blob, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for id, plain := range map[string][]byte{"net": blob, "mod": mod.Encode()} {
		sealed, err := enc.Seal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if id == "net" {
			_, err = sess.LoadSealedNetwork(id, sealed)
		} else {
			_, err = sess.LoadSealedModule(id, sealed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// mustProtectedNet hosts the network sealed into sess under id on the
// float engine.
func mustProtectedNet(t *testing.T, sess *enclave.Session, id string) Executable {
	t.Helper()
	net, err := sess.Network(id)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Protected(sess, Float(net, 32))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustProtectedMod hosts the module sealed into sess under id, costed at
// macs per query.
func mustProtectedMod(t *testing.T, sess *enclave.Session, id string, macs int64) Executable {
	t.Helper()
	mod, err := sess.Module(id)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Protected(sess, Module(mod, mod.Caps, macs, nil))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// execKinds builds every executable kind over the fixture model and
// registers each one's cloud half: the float network, its int8 QModel, its
// compiled module (served whole by the enclave) and its enclave-hosted
// copy.
func execKinds(t *testing.T, f *fixture) []execKind {
	t.Helper()
	mod, err := compat.CompileProcVM(f.model, compat.CompileOptions{Name: "kinds"})
	if err != nil {
		t.Fatal(err)
	}
	var macs int64
	for _, c := range mustSummary(t, f.model) {
		macs += c.Info.MACs
	}
	sess := sealedSession(t, f.model, mod)
	kinds := []struct {
		execKind
		cloud Executable
	}{
		{execKind{"float", "v1", Float(f.model, 32)}, nil}, // the fixture registered v1
		{execKind{"int8", "v1#q", mustQuant(t, f.model, quant.Int8)}, mustQuant(t, f.model, quant.Int8)},
		{execKind{"module", "vm", Module(mod, mod.Caps, macs, []int{8})}, mustProtectedMod(t, sess, "mod", macs)},
		{execKind{"enclave", "v1@enc", mustProtectedNet(t, sess, "net")}, mustProtectedNet(t, sess, "net")},
	}
	out := make([]execKind, len(kinds))
	for i, k := range kinds {
		if k.cloud != nil {
			if err := f.cloud.Register(k.version, k.cloud); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = k.execKind
	}
	return out
}

// TestExecutableForwardComposes pins the stage contract every kind shares:
// Forward over [0,cut) then [cut,n) equals Forward over [0,n) bit for bit
// at every valid cut, lo == hi is the identity, and out-of-range stages
// reject. The float kind must also match the network's own forward pass,
// and the enclave kind charges its enclave's slowdown.
func TestExecutableForwardComposes(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 10)
	x := f.input(13)
	in := tensor.FromSlice(x, 1, len(x))
	for _, k := range execKinds(t, f) {
		e := k.device
		n := e.Stages()
		costs, err := e.Costs()
		if err != nil || len(costs) != n {
			t.Fatalf("%s: %d costs for %d stages (%v)", k.name, len(costs), n, err)
		}
		want := k.reference(t, x)
		for cut := 0; cut <= n; cut++ {
			if e.SnapCut(cut) != cut && cut != n {
				continue
			}
			act, err := e.Forward(in, 0, cut, nil)
			if err != nil {
				t.Fatalf("%s cut %d: prefix: %v", k.name, cut, err)
			}
			out, err := e.Forward(act, cut, n, nil)
			if err != nil {
				t.Fatalf("%s cut %d: suffix: %v", k.name, cut, err)
			}
			if !vecBitsEqual(out.Data, want) {
				t.Fatalf("%s cut %d: prefix+suffix differs from the whole forward", k.name, cut)
			}
		}
		if same, err := e.Forward(in, 1, 1, nil); err != nil || same != in {
			t.Fatalf("%s: empty range did not return its input (%v)", k.name, err)
		}
		for _, r := range [][2]int{{-1, 1}, {0, n + 1}, {1, 0}} {
			if _, err := e.Forward(in, r[0], r[1], nil); err == nil {
				t.Fatalf("%s: accepted stage range %v", k.name, r)
			}
		}
		wantSlow := 1.0
		if k.name == "enclave" {
			wantSlow = 1.5
		}
		if e.Slowdown() != wantSlow {
			t.Fatalf("%s: slowdown %v, want %v", k.name, e.Slowdown(), wantSlow)
		}
	}
	if want := f.expect(x); !vecBitsEqual(execKind{"float", "", Float(f.model, 32)}.reference(t, x), want.Data) {
		t.Fatal("float executable differs from the network's forward pass")
	}
}

// TestProtectedModuleGasExhaustionMidSuffix pins the protected world's
// metering: a module whose pinned gas limit is too small for one inference
// fails with procvm.ErrOutOfGas — inside the enclave exactly as outside —
// and returns no partial output, while a healthy module in the same
// session still runs. In the cloud tier the failure fails that request.
func TestProtectedModuleGasExhaustionMidSuffix(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 10)
	mod, err := compat.CompileProcVM(f.model, compat.CompileOptions{Name: "gas"})
	if err != nil {
		t.Fatal(err)
	}
	starved, err := procvm.DecodeModule(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	starved.GasLimit = mod.GasLimit / 2 // dies partway through the suffix
	sess := sealedSession(t, f.model, starved)
	x := tensor.FromSlice(f.input(3), 1, 8)
	e := mustProtectedMod(t, sess, "mod", 1)
	out, err := e.Forward(x, 0, 1, nil)
	if !errors.Is(err, procvm.ErrOutOfGas) {
		t.Fatalf("error %v, want %v", err, procvm.ErrOutOfGas)
	}
	if out != nil {
		t.Fatal("gas exhaustion leaked a partial output")
	}
	sealed, err := sess.Enclave().Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("healthy", sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := mustProtectedMod(t, sess, "healthy", 1).Forward(x, 0, 1, nil); err != nil {
		t.Fatal(err)
	}

	if err := f.cloud.Register("starved", e); err != nil {
		t.Fatal(err)
	}
	f.cloud.Start()
	defer f.cloud.Close()
	payload := encodeAct(t, x)
	if _, err := f.cloud.Submit("t", "starved", 0, payload); !errors.Is(err, procvm.ErrOutOfGas) {
		t.Fatalf("cloud submit: %v, want %v", err, procvm.ErrOutOfGas)
	}
}

// TestCloudIsolatesFailingRows coalesces good and bad requests into one
// batch of an enclave-hosted module (which leaves input geometry to its
// VM): the bad row must fail alone, and its batch-mates must still get
// answers bit-identical to running alone.
func TestCloudIsolatesFailingRows(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{}, 10)
	mod, err := compat.CompileProcVM(f.model, compat.CompileOptions{Name: "rows"})
	if err != nil {
		t.Fatal(err)
	}
	sess := sealedSession(t, f.model, mod)
	cloud := NewCloud(CloudConfig{MaxBatch: 8, Dispatchers: 1})
	e := mustProtectedMod(t, sess, "mod", 1)
	if err := cloud.Register("vm", e); err != nil {
		t.Fatal(err)
	}
	good := f.input(5)
	want, err := e.Forward(tensor.FromSlice(good, 1, 8), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"good-a": encodeAct(t, tensor.FromSlice(good, 1, 8)),
		"bad":    encodeAct(t, tensor.FromSlice([]float32{1, 2, 3}, 1, 3)),
		"good-b": encodeAct(t, tensor.FromSlice(good, 1, 8)),
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := map[string]error{}
	resps := map[string]Response{}
	for tenant, p := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := cloud.Submit(tenant, "vm", 0, p)
			mu.Lock()
			errs[tenant], resps[tenant] = err, r
			mu.Unlock()
		}()
	}
	waitDepth(t, cloud, len(payloads))
	cloud.Start()
	wg.Wait()
	cloud.Close()
	if errs["bad"] == nil {
		t.Fatal("the malformed row was served")
	}
	for _, tenant := range []string{"good-a", "good-b"} {
		if errs[tenant] != nil {
			t.Fatalf("%s failed with its batch-mate: %v", tenant, errs[tenant])
		}
		var out tensor.Tensor
		if _, err := out.ReadFrom(bytes.NewReader(resps[tenant].Payload)); err != nil {
			t.Fatal(err)
		}
		if !vecBitsEqual(out.Data, want.Data) || resps[tenant].BatchSize != 3 {
			t.Fatalf("%s: answer %v (batch %d), want %v from a batch of 3", tenant, out.Data, resps[tenant].BatchSize, want.Data)
		}
	}
	if st := cloud.Stats(); st.Served != 2 || st.Batches != 1 {
		t.Fatalf("stats %+v, want 2 served in 1 batch", st)
	}
}

// FuzzBoundaryDecode feeds arbitrary payloads through the decoders the
// cloud tier uses — the float tensor codec and QAB1 — at every cut of the
// fuzz model. No input may panic, and any payload a codec accepts must
// re-encode to exactly the bytes it arrived as: the wire formats are
// canonical, so nothing is silently dropped or normalized.
func FuzzBoundaryDecode(f *testing.F) {
	rng := tensor.NewRNG(17)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 6, rng), nn.NewReLU(), nn.NewDense(6, 3, rng))
	q, err := Quant(net, quant.Int8)
	if err != nil {
		f.Fatal(err)
	}
	codecs := []Codec{Float(net, 32).Codec(), q.Codec()}

	seed := func(act *tensor.Tensor, c Codec) []byte {
		var buf bytes.Buffer
		if err := c.Encode(&buf, act, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range codecs {
		f.Add(seed(tensor.FromSlice([]float32{1, -2, 3.5, 0}, 1, 4), c))
		f.Add(seed(tensor.FromSlice([]float32{0.5, 0, -1, 2, 7, -3}, 1, 6), c))
	}
	f.Add([]byte("QAB1"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, c := range codecs {
			for cut := 0; cut < len(net.Layers()); cut++ {
				b, err := c.Decode(payload, cut)
				if err != nil {
					continue
				}
				var re bytes.Buffer
				if b.act != nil {
					if _, err := b.act.WriteTo(&re); err != nil {
						t.Fatal(err)
					}
				} else if err := encodeQAB(&re, b.codes, []float32{b.scale}, 1, len(b.codes)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(re.Bytes(), payload) {
					t.Fatalf("cut %d: accepted payload re-encodes differently:\n%x\n%x", cut, payload, re.Bytes())
				}
			}
		}
	})
}
