package sched

// FairQueue is a weighted-fair multi-tenant FIFO: items are pushed onto
// per-tenant queues and popped in weighted deficit round-robin (WDRR)
// order. With every item unit-cost (one session is one admission slot),
// DRR reduces to its clean form: each visit to a backlogged tenant
// refreshes its deficit by its weight, each pop spends one unit, and the
// cursor advances when the deficit is spent — so over any interval in
// which a set of tenants stays backlogged, tenant i receives service
// proportional to weight_i / Σ weight_j (the WDRR fairness invariant).
// A tenant whose queue empties forfeits its remaining deficit: fairness
// is an entitlement to service while waiting, not a bankable credit, so
// an idle tenant cannot burst past its weight when it returns.
//
// FairQueue is not synchronized: the serving layer's admission path does
// compound check-then-pop transitions that must be atomic with its own
// state, so the caller (serve.Pool holds its pool lock, tests hold
// theirs) brackets every call with one lock instead of paying two.
type FairQueue[T any] struct {
	tenants map[string]*fqTenant[T]
	active  []*fqTenant[T] // round-robin ring: tenants with queued items
	cur     int            // index into active of the tenant being served
	size    int
}

type fqTenant[T any] struct {
	name    string
	weight  int
	deficit int
	head    int // items[head:] are queued; amortized O(1) FIFO
	items   []T
}

// NewFairQueue creates an empty queue. Unknown tenants default to
// weight 1; SetWeight overrides.
func NewFairQueue[T any]() *FairQueue[T] {
	return &FairQueue[T]{tenants: make(map[string]*fqTenant[T])}
}

func (q *FairQueue[T]) tenant(name string) *fqTenant[T] {
	t := q.tenants[name]
	if t == nil {
		t = &fqTenant[T]{name: name, weight: 1}
		q.tenants[name] = t
	}
	return t
}

// SetWeight sets a tenant's WDRR weight (minimum 1). Weights may be set
// before any push; changing a weight mid-backlog applies from the
// tenant's next deficit refresh.
func (q *FairQueue[T]) SetWeight(tenant string, w int) {
	if w < 1 {
		w = 1
	}
	q.tenant(tenant).weight = w
}

// Weight returns the tenant's configured weight (1 when never set).
func (q *FairQueue[T]) Weight(tenant string) int {
	if t := q.tenants[tenant]; t != nil {
		return t.weight
	}
	return 1
}

// Push appends item to the tenant's FIFO.
func (q *FairQueue[T]) Push(tenant string, item T) {
	t := q.tenant(tenant)
	if t.head == len(t.items) && t.head > 0 {
		t.head, t.items = 0, t.items[:0]
	}
	if len(t.items) == t.head { // was empty: joins the service ring
		t.deficit = 0
		q.active = append(q.active, t)
	}
	t.items = append(t.items, item)
	q.size++
}

// Len returns the total number of queued items.
func (q *FairQueue[T]) Len() int { return q.size }

// Pop removes and returns the next item in WDRR order: the current
// tenant's oldest item while its deficit lasts, then the next backlogged
// tenant's. Reports false when the queue is empty.
func (q *FairQueue[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	t := q.active[q.cur]
	if t.deficit <= 0 {
		// Arriving at this tenant for a new round: refresh its quantum.
		t.deficit = t.weight
	}
	item := t.items[t.head]
	t.items[t.head] = zero
	t.head++
	t.deficit--
	q.size--
	if t.head == len(t.items) {
		// Emptied: leave the ring and forfeit the leftover deficit.
		t.head, t.items, t.deficit = 0, t.items[:0], 0
		q.active = append(q.active[:q.cur], q.active[q.cur+1:]...)
		if q.cur >= len(q.active) {
			q.cur = 0
		}
	} else if t.deficit <= 0 {
		q.cur = (q.cur + 1) % len(q.active)
	}
	return item, true
}

// Drain empties the queue in WDRR order, returning every item.
func (q *FairQueue[T]) Drain() []T {
	out := make([]T, 0, q.size)
	for {
		item, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, item)
	}
}
