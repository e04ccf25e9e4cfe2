package repaird

import (
	"container/heap"
	"sync"
)

// queue is the priority repair queue: a max-heap on risk score with
// per-name deduplication, so a file rescanned while still waiting moves
// to its new priority instead of queueing twice. Ties break by name so
// drain order is deterministic under the virtual clock.
type queue struct {
	mu     sync.Mutex
	items  []*Risk
	byName map[string]*Risk
}

func newQueue() *queue {
	return &queue{byName: map[string]*Risk{}}
}

// push enqueues r, or re-prioritizes the queued entry of the same name.
// It reports whether the name was newly added.
func (q *queue) push(r Risk) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cur, ok := q.byName[r.Name]; ok {
		*cur = r
		heap.Init((*riskHeap)(q))
		return false
	}
	item := &r
	q.byName[r.Name] = item
	heap.Push((*riskHeap)(q), item)
	return true
}

// pop returns the riskiest queued file, or false when the queue is empty.
func (q *queue) pop() (Risk, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Risk{}, false
	}
	item := heap.Pop((*riskHeap)(q)).(*Risk)
	delete(q.byName, item.Name)
	return *item, true
}

// depth returns the number of queued files.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// riskHeap adapts queue to heap.Interface; callers hold q.mu.
type riskHeap queue

func (h *riskHeap) Len() int { return len(h.items) }
func (h *riskHeap) Less(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score > h.items[j].Score
	}
	return h.items[i].Name < h.items[j].Name
}
func (h *riskHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *riskHeap) Push(x any)    { h.items = append(h.items, x.(*Risk)) }
func (h *riskHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}
