package offload

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/tensor"
)

// ErrShed is returned by Submit when the bounded admission queue is full.
// Shedding is the cloud tier's overload valve: the device retries on the
// engine's deterministic backoff schedule and, if the retries exhaust,
// finishes the query locally — the cloud being busy must never lose a
// query, only move its compute back to the edge.
var ErrShed = errors.New("offload: admission queue full")

// ErrClosed is returned by Submit after the tier has been closed.
var ErrClosed = errors.New("offload: cloud tier closed")

// ErrUnknownModel is returned for suffix requests naming an unregistered
// model version.
var ErrUnknownModel = errors.New("offload: unknown model version")

// CloudConfig sizes a CloudTier.
type CloudConfig struct {
	// Caps models the cloud-side hardware for per-query latency accounting
	// (default: the wall-powered edge-gateway profile).
	Caps device.Capabilities
	// MaxBatch bounds how many queued suffix requests one dispatch
	// coalesces into a single ForwardBatch call (default 16). Coalescing is
	// opportunistic: a dispatcher drains whatever is queued up to this
	// limit, it never waits for a batch to fill.
	MaxBatch int
	// QueueCap bounds admitted-but-unserved requests across all tenants;
	// Submit sheds with ErrShed beyond it (default 256).
	QueueCap int
	// Dispatchers is the number of serving goroutines (default 2). Each
	// drains and executes one batch at a time; ForwardBatch performs no
	// model writes, so dispatchers share registered models safely.
	Dispatchers int
	// TraceBatch, when set, observes every dispatched batch (model
	// version, cut, tenants in service order) — a test and CLI hook, called
	// outside the tier lock.
	TraceBatch func(versionID string, cut int, tenants []string)
}

// Response is the cloud's answer to one suffix request.
type Response struct {
	// Payload is the output activation (usually the logits row), encoded
	// with the tensor codec whatever the request's boundary codec was.
	Payload []byte
	// Latency is the modeled cloud compute time for this query.
	Latency time.Duration
	// BatchSize is how many requests the serving batch coalesced —
	// observability for the batching efficiency the tier exists for.
	BatchSize int
}

// CloudStats aggregates a tier's serving counters.
type CloudStats struct {
	Submitted int64
	Served    int64
	Shed      int64
	Batches   int64
	// MaxQueueDepth is the high-water mark of admitted requests.
	MaxQueueDepth int
	// MaxBatchSize is the largest coalesced batch dispatched.
	MaxBatchSize int
}

// request is one admitted suffix query waiting for service: the decoded
// boundary row its executable's codec resumes from.
type request struct {
	tenant string
	row    Boundary
	reply  chan result
}

// result is what a dispatcher delivers back to a waiting Submit.
type result struct {
	resp Response
	err  error
}

// classKey identifies a batchable request class: only requests for the
// same model version at the same cut share activation shapes and suffix
// weights, so only they can ride one ForwardBatch.
type classKey struct {
	version string
	cut     int
}

// class is the per-(version, cut) queue state: per-tenant FIFOs plus the
// round-robin cursor that makes draining fair — a tenant flooding the
// queue gets at most one slot per turn while other tenants have work.
type class struct {
	key     classKey
	codec   Codec
	sufMACs int64
	bits    int
	slow    float64

	tenants map[string][]*request
	order   []string // tenants with pending work, in arrival order
	next    int      // round-robin cursor into order
	pending int
}

// CloudTier is the cloud half of the offload plane: a bounded, batched
// admission queue in front of suffix execution. Devices Submit boundary
// activations; dispatcher goroutines coalesce concurrent requests of the
// same (model, cut) class into single ForwardBatch calls with per-tenant
// fair scheduling. Because ForwardBatch is bit-identical to per-sample
// Forward, the answer a device gets does not depend on which batch its
// request rode in — batching changes throughput, never results.
type CloudTier struct {
	cfg CloudConfig

	mu         sync.Mutex
	cond       *sync.Cond
	models     map[string]Executable
	classes    map[classKey]*class
	classOrder []classKey
	nextClass  int
	queued     int
	started    bool
	closed     bool
	stats      CloudStats
	wg         sync.WaitGroup
}

// NewCloud returns a cloud tier over the configuration. Call Start to
// begin serving; Submit before Start queues (and may shed) but is not
// served until dispatchers run.
func NewCloud(cfg CloudConfig) *CloudTier {
	if cfg.Caps.Name == "" {
		for _, p := range device.StandardProfiles() {
			if p.Class == device.ClassEdgeServer {
				cfg.Caps = p
			}
		}
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 16
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 256
	}
	if cfg.Dispatchers < 1 {
		cfg.Dispatchers = 2
	}
	c := &CloudTier{
		cfg:     cfg,
		models:  make(map[string]Executable),
		classes: make(map[classKey]*class),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Caps returns the modeled cloud hardware profile.
func (c *CloudTier) Caps() device.Capabilities { return c.cfg.Caps }

// Register makes a model version servable through its executable: the
// executable's codec decides which boundary payloads the version accepts,
// its cost model prices each query, and a Protected executable keeps the
// model inside its enclave. The executable is shared, not copied — the
// caller must not mutate its model while the tier serves. Repeated
// registration of the same version is a no-op.
func (c *CloudTier) Register(versionID string, e Executable) error {
	if versionID == "" || e == nil {
		return fmt.Errorf("offload: register needs a version ID and an executable")
	}
	costs, err := e.Costs()
	if err != nil {
		return fmt.Errorf("offload: register %s: %w", versionID, err)
	}
	if len(costs) == 0 {
		return fmt.Errorf("offload: register %s: model has no layers", versionID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.models[versionID]; ok {
		return nil
	}
	c.models[versionID] = e
	return nil
}

// Registered reports whether a model version is already servable —
// callers holding only a version ID can skip materializing the artifact.
func (c *CloudTier) Registered(versionID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.models[versionID]
	return ok
}

// Start launches the dispatcher goroutines. Idempotent.
func (c *CloudTier) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for i := 0; i < c.cfg.Dispatchers; i++ {
		c.wg.Add(1)
		go c.dispatch()
	}
}

// Close stops admission, drains queued requests (failing them with
// ErrClosed if the tier never started) and waits for dispatchers to exit.
func (c *CloudTier) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if !c.started {
		// No dispatcher will ever drain; fail the queued requests here.
		for _, cl := range c.classes {
			for _, q := range cl.tenants {
				for _, r := range q {
					r.reply <- result{err: ErrClosed}
				}
			}
			cl.tenants = make(map[string][]*request)
			cl.order, cl.pending = nil, 0
		}
		c.queued = 0
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// QueueDepth returns the number of admitted, not yet served requests —
// the congestion signal replanners watch.
func (c *CloudTier) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// Stats returns a snapshot of the serving counters.
func (c *CloudTier) Stats() CloudStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Submit hands the cloud one boundary activation, in the registered
// executable's wire format, for stages [cut, n) of the model version and
// blocks until the suffix result returns or admission fails. tenant scopes
// fair scheduling — use a stable per-device identity.
func (c *CloudTier) Submit(tenant, versionID string, cut int, activation []byte) (Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClosed
	}
	e, ok := c.models[versionID]
	c.mu.Unlock()
	if !ok {
		return Response{}, fmt.Errorf("%w: %s", ErrUnknownModel, versionID)
	}
	if n := e.Stages(); cut < 0 || cut >= n {
		return Response{}, fmt.Errorf("offload: cut %d out of range [0,%d) for %s", cut, n, versionID)
	}
	if e.SnapCut(cut) != cut {
		return Response{}, fmt.Errorf("offload: cut %d is not a valid boundary for %s", cut, versionID)
	}
	row, err := e.Codec().Decode(activation, cut)
	if err != nil {
		return Response{}, fmt.Errorf("offload: %s@%d: %w", versionID, cut, err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClosed
	}
	key := classKey{version: versionID, cut: cut}
	cl, ok := c.classes[key]
	if !ok {
		cl = c.newClassLocked(key, e)
	}
	if c.queued >= c.cfg.QueueCap {
		c.stats.Shed++
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w (%d queued)", ErrShed, c.cfg.QueueCap)
	}
	req := &request{tenant: tenant, row: row, reply: make(chan result, 1)}
	if _, ok := cl.tenants[tenant]; !ok {
		cl.order = append(cl.order, tenant)
	}
	cl.tenants[tenant] = append(cl.tenants[tenant], req)
	cl.pending++
	c.queued++
	c.stats.Submitted++
	if c.queued > c.stats.MaxQueueDepth {
		c.stats.MaxQueueDepth = c.queued
	}
	c.cond.Signal()
	c.mu.Unlock()

	r := <-req.reply
	return r.resp, r.err
}

// newClassLocked builds the (version, cut) serving class and its cost
// figures. Register validated the cost model; caller holds c.mu.
func (c *CloudTier) newClassLocked(key classKey, e Executable) *class {
	costs, _ := e.Costs()
	var macs int64
	for _, lc := range costs[key.cut:] {
		macs += lc.Info.MACs
	}
	cl := &class{
		key: key, codec: e.Codec(), sufMACs: macs, bits: e.Bits(), slow: e.Slowdown(),
		tenants: make(map[string][]*request),
	}
	c.classes[key] = cl
	c.classOrder = append(c.classOrder, key)
	return cl
}

// dispatch is one serving goroutine: wait for work, drain a fair batch,
// execute it, repeat until closed and drained. Each dispatcher owns one
// arena, so executables borrow per-dispatcher scratch.
func (c *CloudTier) dispatch() {
	defer c.wg.Done()
	ar := engine.NewArena()
	for {
		c.mu.Lock()
		for c.queued == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.queued == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		cl, reqs := c.drainLocked()
		c.mu.Unlock()
		if len(reqs) == 0 {
			continue
		}
		c.execBatch(cl, reqs, ar)
	}
}

// drainLocked picks the next class with pending work (round-robin across
// classes) and drains up to MaxBatch requests from it, one per tenant per
// turn. Caller holds c.mu.
func (c *CloudTier) drainLocked() (*class, []*request) {
	var cl *class
	for range c.classOrder {
		key := c.classOrder[c.nextClass%len(c.classOrder)]
		c.nextClass = (c.nextClass + 1) % len(c.classOrder)
		if cand := c.classes[key]; cand.pending > 0 {
			cl = cand
			break
		}
	}
	if cl == nil {
		return nil, nil
	}
	take := cl.pending
	if take > c.cfg.MaxBatch {
		take = c.cfg.MaxBatch
	}
	reqs := make([]*request, 0, take)
	for len(reqs) < take {
		tenant := cl.order[cl.next]
		q := cl.tenants[tenant]
		reqs = append(reqs, q[0])
		q = q[1:]
		if len(q) == 0 {
			delete(cl.tenants, tenant)
			cl.order = append(cl.order[:cl.next], cl.order[cl.next+1:]...)
			if len(cl.order) == 0 {
				cl.next = 0
			} else {
				cl.next %= len(cl.order)
			}
		} else {
			cl.tenants[tenant] = q
			cl.next = (cl.next + 1) % len(cl.order)
		}
		cl.pending--
	}
	c.queued -= len(reqs)
	return cl, reqs
}

// execBatch resumes one coalesced batch on the class codec and replies to
// every request. If the batch fails, each request is re-run alone, so a
// request that cannot execute (a compiled module out of gas, a row of the
// wrong geometry) fails by itself and its batch-mates are unaffected.
func (c *CloudTier) execBatch(cl *class, reqs []*request, ar *engine.Arena) {
	if c.cfg.TraceBatch != nil {
		tenants := make([]string, len(reqs))
		for i, r := range reqs {
			tenants[i] = r.tenant
		}
		c.cfg.TraceBatch(cl.key.version, cl.key.cut, tenants)
	}
	rows := make([]Boundary, len(reqs))
	for i, r := range reqs {
		rows[i] = r.row
	}
	// Replies are built before any is delivered: a per-row re-run reuses
	// arena storage, so each output is encoded before the next run.
	replies := make([]result, len(reqs))
	// Protected execution pays the enclave's slowdown on cloud compute.
	perQuery := time.Duration(float64(c.cfg.Caps.InferenceLatency(cl.sufMACs, cl.bits)) * cl.slow)
	resp := Response{Latency: perQuery, BatchSize: len(reqs)}
	served := 0
	if out, err := cl.codec.Resume(rows, cl.key.cut, ar); err == nil {
		for i := range reqs {
			served += encodeReply(&replies[i], out, i, resp)
		}
	} else {
		for i := range reqs {
			out, err := cl.codec.Resume(rows[i:i+1], cl.key.cut, ar)
			if err != nil {
				replies[i].err = fmt.Errorf("offload: suffix %s@%d: %w", cl.key.version, cl.key.cut, err)
				continue
			}
			served += encodeReply(&replies[i], out, 0, resp)
		}
	}
	// Stats commit BEFORE any reply is delivered: a caller unblocked by
	// its reply must observe its own request in Stats() — the chaos
	// scenario's CloudServed == Split invariant depends on it.
	c.mu.Lock()
	c.stats.Batches++
	c.stats.Served += int64(served)
	if len(reqs) > c.stats.MaxBatchSize {
		c.stats.MaxBatchSize = len(reqs)
	}
	c.mu.Unlock()
	for i, r := range reqs {
		r.reply <- replies[i]
	}
}

// encodeReply encodes row i of a suffix output into the reply with the
// tensor codec, reporting 1 when the request was served. The output
// aliases arena storage, so the row is copied out here.
func encodeReply(reply *result, out *tensor.Tensor, i int, resp Response) int {
	rows := out.Dim(0)
	outLen := out.Size() / rows
	row := tensor.FromSlice(
		append([]float32(nil), out.Data[i*outLen:(i+1)*outLen]...),
		append([]int{1}, out.Shape()[1:]...)...)
	var buf bytes.Buffer
	if _, err := row.WriteTo(&buf); err != nil {
		reply.err = fmt.Errorf("offload: encode result: %w", err)
		return 0
	}
	resp.Payload = buf.Bytes()
	reply.resp = resp
	return 1
}
