package offload

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// Executable is one servable form of a model behind the single execution
// contract that deployment serving, split sessions and the cloud tier
// share. A model runs as a sequence of stages (one per network layer; a
// compiled module is one opaque stage), so a split is Forward over [0, cut)
// on the device, a Codec round trip, and Forward over [cut, n) in the
// cloud — and an unsplit query is Forward over [0, n).
//
// Four implementations cover every served kind: Float (an nn.Network),
// Quant (a quant.QModel on the integer kernels), Module (a compiled procvm
// module) and Protected (a network or module hosted in an enclave
// session). An Executable performs no writes to its model while running,
// so goroutines may share one as long as each brings its own arena.
type Executable interface {
	// Stages is the number of executable stages.
	Stages() int
	// Costs computes the per-stage cost model (len == Stages()). It is
	// not cached: session setup and cloud registration call it once, and
	// serving never does, so building an executable costs no Summary.
	Costs() ([]nn.LayerCost, error)
	// InputShape is the per-example shape entering stage 0; nil when the
	// executable does not declare one (a compiled module's VM validates
	// its own input geometry).
	InputShape() []int
	// Forward runs stages [lo, hi) on a [rows, ...] batch, borrowing
	// scratch from ar (nil: one-shot scratch). lo == hi returns x. The
	// result may alias arena storage and is valid until the next call on
	// the same arena.
	Forward(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error)
	// SnapCut maps a planned cut onto the largest valid boundary ≤ it,
	// falling back to Stages() (all-local) when no earlier cut is valid.
	SnapCut(cut int) int
	// Scheme is the weight precision of the kernels actually executing.
	Scheme() quant.Scheme
	// Bits is the bit width charged to device and cloud cost models.
	Bits() int
	// Slowdown is the latency factor of the world the executable runs in
	// (1 outside an enclave).
	Slowdown() float64
	// Codec is the wire format of this executable's boundary activations.
	Codec() Codec
}

// Codec is the boundary wire format of one executable kind: the tensor
// codec for float executables, QAB1 (int8 codes plus a per-example scale)
// for integer ones.
type Codec interface {
	// Encode appends the wire form of a [rows, ...] boundary activation
	// to buf.
	Encode(buf *bytes.Buffer, act *tensor.Tensor, ar *engine.Arena) error
	// Decode parses a payload carrying one boundary row that enters stage
	// cut, rejecting the wrong format, width or shape.
	Decode(payload []byte, cut int) (Boundary, error)
	// Resume runs stages [cut, Stages()) on a batch of decoded rows. The
	// result may alias arena storage, like Forward's.
	Resume(rows []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error)
}

// Boundary is one decoded boundary row, opaque outside its codec.
type Boundary struct {
	act   *tensor.Tensor // tensor codec: the [1, ...] activation row
	codes []int8         // QAB1: the row's int8 activation codes
	scale float32        // QAB1: the row's dynamic activation scale
}

// checkRange validates a stage range against a stage count.
func checkRange(lo, hi, n int) error {
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("offload: stage range [%d,%d) invalid for %d stages", lo, hi, n)
	}
	return nil
}

// clampCut maps a planned cut onto [0, n] for executables that can cut at
// every stage boundary.
func clampCut(cut, n int) int { return max(0, min(cut, n)) }

// floatExec runs an nn.Network on its batched fast path. Stage ranges run
// on cached Subnet views, each with its own arena scratch, so a prefix
// result fed into the matching suffix never shares a buffer with it.
type floatExec struct {
	net   *nn.Network
	bits  int
	codec tensorCodec

	mu    sync.Mutex                             // serializes view builds
	views atomic.Pointer[map[[2]int]*nn.Network] // copy-on-write: reads take no lock
}

// Float serves net on the float engine, charged at bits (≤0 means 32): an
// integer variant served without native kernels keeps its width here, so
// cost models charge the emulation penalty.
func Float(net *nn.Network, bits int) Executable {
	if bits <= 0 {
		bits = 32
	}
	e := &floatExec{net: net, bits: bits}
	e.codec.exec = e
	return e
}

func (e *floatExec) Stages() int                    { return len(e.net.Layers()) }
func (e *floatExec) Costs() ([]nn.LayerCost, error) { return e.net.Summary() }
func (e *floatExec) InputShape() []int              { return e.net.InputShape }
func (e *floatExec) SnapCut(cut int) int            { return clampCut(cut, e.Stages()) }
func (e *floatExec) Scheme() quant.Scheme           { return quant.Float32 }
func (e *floatExec) Bits() int                      { return e.bits }
func (e *floatExec) Slowdown() float64              { return 1 }
func (e *floatExec) Codec() Codec                   { return &e.codec }

// view returns the network executing stages [lo, hi): the network itself
// for the full range, otherwise a Subnet built once and cached. A cached
// view is read without locking, so the cloud's submitters and dispatchers
// do not contend on it; only a first use of a range builds and publishes a
// new map.
func (e *floatExec) view(lo, hi int) (*nn.Network, error) {
	if lo == 0 && hi == e.Stages() {
		return e.net, nil
	}
	key := [2]int{lo, hi}
	if m := e.views.Load(); m != nil {
		if v, ok := (*m)[key]; ok {
			return v, nil
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.views.Load()
	if old != nil {
		if v, ok := (*old)[key]; ok {
			return v, nil
		}
	}
	v, err := e.net.Subnet(lo, hi)
	if err != nil {
		return nil, err
	}
	m := map[[2]int]*nn.Network{key: v}
	if old != nil {
		maps.Copy(m, *old)
	}
	e.views.Store(&m)
	return v, nil
}

// shapeAt is the per-example activation shape entering stage cut.
func (e *floatExec) shapeAt(cut int) ([]int, error) {
	if err := checkRange(cut, e.Stages(), e.Stages()); err != nil {
		return nil, err
	}
	v, err := e.view(cut, e.Stages())
	if err != nil {
		return nil, err
	}
	return v.InputShape, nil
}

func (e *floatExec) Forward(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error) {
	if err := checkRange(lo, hi, e.Stages()); err != nil {
		return nil, err
	}
	if lo == hi {
		return x, nil
	}
	v, err := e.view(lo, hi)
	if err != nil {
		return nil, err
	}
	var s *nn.Scratch
	if ar != nil {
		s = ar.Slot(v, func() any { return nn.NewScratch() }).(*nn.Scratch)
	}
	return v.ForwardBatch(x, s), nil
}

// quantExec runs a quant.QModel on the integer kernels. The float network
// it was lowered from supplies the per-stage cost model.
type quantExec struct {
	qm    *quant.QModel
	net   *nn.Network
	codec qabCodec
}

// Quant lowers net onto the integer kernels at an integer scheme. It fails
// when the scheme is Float32 or a layer has no integer-runtime kernel.
func Quant(net *nn.Network, scheme quant.Scheme) (Executable, error) {
	qm, err := quant.NewQModel(net, scheme)
	if err != nil {
		return nil, err
	}
	e := &quantExec{qm: qm, net: net}
	e.codec.exec = e
	return e, nil
}

func (e *quantExec) Stages() int                    { return e.qm.NumStages() }
func (e *quantExec) Costs() ([]nn.LayerCost, error) { return e.net.Summary() }
func (e *quantExec) InputShape() []int              { return e.qm.InputShape }
func (e *quantExec) SnapCut(cut int) int            { return e.qm.SnapCut(cut) }
func (e *quantExec) Scheme() quant.Scheme           { return e.qm.Scheme }
func (e *quantExec) Bits() int                      { return e.qm.Scheme.Bits() }
func (e *quantExec) Slowdown() float64              { return 1 }
func (e *quantExec) Codec() Codec                   { return &e.codec }

// scratch borrows the arena's QScratch. Stage buffers are indexed by
// absolute stage, so a prefix and its suffix share one QScratch safely.
// The slot is keyed by the QModel, not the executable: an arena outlives
// the executables it serves, and the key must not pin the float network.
func (e *quantExec) scratch(ar *engine.Arena) *quant.QScratch {
	if ar == nil {
		return quant.NewQScratch()
	}
	return ar.Slot(e.qm, func() any { return quant.NewQScratch() }).(*quant.QScratch)
}

func (e *quantExec) Forward(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error) {
	if err := checkRange(lo, hi, e.Stages()); err != nil {
		return nil, err
	}
	return e.qm.ForwardRange(x, e.scratch(ar), lo, hi), nil
}

// moduleExec runs a compiled procvm module, row by row (the VM is a
// single-vector machine). A module has no layer graph to split: it is one
// stage, so the only split is all-local versus whole-module remote
// execution (cut 0).
type moduleExec struct {
	mod     *procvm.Module
	rt      *procvm.Runtime
	macs    int64
	inShape []int
	codec   tensorCodec
}

// Module serves a compiled module under the granted capabilities, with
// the runtime's gas ceiling raised to the module's pinned limit. macs is
// the per-query work the cost model charges; inShape is the input
// geometry the module does not declare itself (nil leaves it to the VM).
func Module(mod *procvm.Module, granted procvm.Capability, macs int64, inShape []int) Executable {
	rt := procvm.NewRuntime(granted)
	if mod.GasLimit > rt.MaxGas {
		rt.MaxGas = mod.GasLimit
	}
	e := &moduleExec{mod: mod, rt: rt, macs: macs, inShape: inShape}
	e.codec.exec = e
	return e
}

func (e *moduleExec) Stages() int { return 1 }
func (e *moduleExec) Costs() ([]nn.LayerCost, error) {
	return []nn.LayerCost{{Kind: "module", Info: nn.LayerInfo{MACs: e.macs}}}, nil
}
func (e *moduleExec) InputShape() []int    { return e.inShape }
func (e *moduleExec) SnapCut(cut int) int  { return clampCut(cut, 1) }
func (e *moduleExec) Scheme() quant.Scheme { return quant.Float32 }
func (e *moduleExec) Bits() int            { return 32 }
func (e *moduleExec) Slowdown() float64    { return 1 }
func (e *moduleExec) Codec() Codec         { return &e.codec }

// shapeAt is the module's declared input geometry (the only cut is 0).
func (e *moduleExec) shapeAt(int) ([]int, error) { return e.inShape, nil }

// Forward runs the module on every row. The first failing row (gas
// exhaustion, a geometry mismatch) fails the call with no partial output.
func (e *moduleExec) Forward(x *tensor.Tensor, lo, hi int, _ *engine.Arena) (*tensor.Tensor, error) {
	if err := checkRange(lo, hi, 1); err != nil {
		return nil, err
	}
	if lo == hi {
		return x, nil
	}
	rows := x.Dim(0)
	cols := 1
	if rows > 0 {
		cols = x.Size() / rows
	}
	var out *tensor.Tensor
	for i := 0; i < rows; i++ {
		res, err := e.rt.Run(e.mod, x.Data[i*cols:(i+1)*cols])
		if err != nil {
			return nil, fmt.Errorf("offload: module %s: %w", e.mod.Name, err)
		}
		if !res.Output.IsVec {
			return nil, fmt.Errorf("offload: module %s produced a scalar, want a vector", e.mod.Name)
		}
		if out == nil {
			out = tensor.New(rows, len(res.Output.Vec))
		}
		copy(out.Data[i*out.Dim(1):(i+1)*out.Dim(1)], res.Output.Vec)
	}
	if out == nil {
		out = tensor.New(0, 1)
	}
	return out, nil
}

// protectedExec is an enclave-hosted executable: it runs the artifact the
// enclave session resolved and charges the protected world's slowdown.
type protectedExec struct {
	Executable
	slow float64
}

func (p *protectedExec) Slowdown() float64 { return p.slow }

// Protected hosts e inside the enclave behind sess: e runs a network or
// module the caller resolved from the session (sess.Network, sess.Module),
// so the plaintext model never leaves it, and every query is charged the
// enclave's slowdown.
func Protected(sess *enclave.Session, e Executable) (Executable, error) {
	if sess == nil || e == nil {
		return nil, fmt.Errorf("offload: protected executable needs an enclave session and an executable")
	}
	slow := sess.Slowdown()
	if slow <= 0 {
		slow = 1
	}
	return &protectedExec{Executable: e, slow: slow}, nil
}

// errWrongCodec rejects a payload in the other kind's wire format.
var errWrongCodec = errors.New("boundary payload is in the wrong wire format for this executable")

// shapedExec is an executable that knows the activation shape entering
// each cut (nil: geometry left to the executable itself).
type shapedExec interface {
	Executable
	shapeAt(cut int) ([]int, error)
}

// tensorCodec is the float boundary codec: the tensor wire format, one
// [1, shape...] row per payload.
type tensorCodec struct {
	exec shapedExec
}

func (c *tensorCodec) Encode(buf *bytes.Buffer, act *tensor.Tensor, _ *engine.Arena) error {
	_, err := act.WriteTo(buf)
	return err
}

func (c *tensorCodec) Decode(payload []byte, cut int) (Boundary, error) {
	if isQAB(payload) {
		return Boundary{}, fmt.Errorf("%w: float executable given a quantized payload", errWrongCodec)
	}
	want, err := c.exec.shapeAt(cut)
	if err != nil {
		return Boundary{}, err
	}
	r := bytes.NewReader(payload)
	act := new(tensor.Tensor)
	if _, err := act.ReadFrom(r); err != nil {
		return Boundary{}, fmt.Errorf("decode activation: %w", err)
	}
	if r.Len() != 0 {
		return Boundary{}, fmt.Errorf("decode activation: %d trailing bytes", r.Len())
	}
	if act.Dim(0) != 1 || (want != nil && !slices.Equal(act.Shape()[1:], want)) {
		return Boundary{}, fmt.Errorf("activation shape %v, want [1 %v] at cut %d", act.Shape(), want, cut)
	}
	return Boundary{act: act}, nil
}

func (c *tensorCodec) Resume(rows []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	width := rows[0].act.Size()
	for _, r := range rows[1:] {
		if r.act.Size() != width {
			return nil, fmt.Errorf("boundary rows of width %d and %d cannot share a batch", width, r.act.Size())
		}
	}
	batch := tensor.New(append([]int{len(rows)}, rows[0].act.Shape()[1:]...)...)
	for i, r := range rows {
		copy(batch.Data[i*width:(i+1)*width], r.act.Data)
	}
	return c.exec.Forward(batch, cut, c.exec.Stages(), ar)
}

// qabCodec is the integer boundary codec: each example ships as the int8
// codes stage cut's kernel would have computed locally plus its dynamic
// scale, and the cloud resumes that kernel from the codes directly — so a
// split answer is bit-identical to the device finishing alone.
type qabCodec struct {
	exec *quantExec
}

// qabWork is the arena-held quantization workspace of the integer codec.
type qabWork struct {
	codes  []int8
	scales []float32
}

func (c *qabCodec) work(ar *engine.Arena, codes, rows int) ([]int8, []float32) {
	var w *qabWork
	if ar != nil {
		w = ar.Slot(c, func() any { return new(qabWork) }).(*qabWork)
	} else {
		w = new(qabWork)
	}
	if cap(w.codes) < codes {
		w.codes = make([]int8, codes)
	}
	if cap(w.scales) < rows {
		w.scales = make([]float32, rows)
	}
	return w.codes[:codes], w.scales[:rows]
}

func (c *qabCodec) Encode(buf *bytes.Buffer, act *tensor.Tensor, ar *engine.Arena) error {
	rows := act.Dim(0)
	if rows == 0 {
		return fmt.Errorf("qab encode: empty batch")
	}
	cols := act.Size() / rows
	codes, scales := c.work(ar, rows*cols, rows)
	quant.QuantizeActivationsRows(act, codes, scales)
	return encodeQAB(buf, codes, scales, rows, cols)
}

func (c *qabCodec) Decode(payload []byte, cut int) (Boundary, error) {
	if !isQAB(payload) {
		return Boundary{}, fmt.Errorf("%w: integer-native executable requires quantized payloads", errWrongCodec)
	}
	codes, scales, rows, cols, err := decodeQAB(payload)
	if err != nil {
		return Boundary{}, err
	}
	if rows != 1 {
		return Boundary{}, fmt.Errorf("quantized boundary carries %d rows, want 1", rows)
	}
	w, err := c.exec.qm.BoundaryWidth(cut)
	if err != nil {
		return Boundary{}, err
	}
	if cols != w {
		return Boundary{}, fmt.Errorf("boundary width %d, want %d at cut %d", cols, w, cut)
	}
	return Boundary{codes: codes, scale: scales[0]}, nil
}

func (c *qabCodec) Resume(rows []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	width := len(rows[0].codes)
	codes, scales := c.work(ar, len(rows)*width, len(rows))
	for i, r := range rows {
		if len(r.codes) != width {
			return nil, fmt.Errorf("boundary rows of width %d and %d cannot share a batch", width, len(r.codes))
		}
		copy(codes[i*width:(i+1)*width], r.codes)
		scales[i] = r.scale
	}
	return c.exec.qm.ForwardFromCodes(codes, scales, len(rows), cut, c.exec.scratch(ar))
}
