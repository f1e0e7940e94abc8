package serve

// SetIngestBurst caps how many packages one ingest admission carries
// (default ingestBurst). Call it before ListenIngest.
func (s *Server) SetIngestBurst(n int) { s.burst = n }

// SetSwapLimit caps a /swap request body at n bytes (default maxSwapBody).
func (s *Server) SetSwapLimit(n int64) { s.swapLimit = n }

// StatsResponse is the /stats JSON document.
type StatsResponse = statsResponse

// queueSlots reports, per attached subscriber, the frame slots its queue
// keeps allocated: the queue's backing array plus the writer's spare.
func (h *hub) queueSlots() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var slots []int
	for sub := range h.subs {
		sub.mu.Lock()
		slots = append(slots, cap(sub.queue)+cap(sub.spare))
		sub.mu.Unlock()
	}
	return slots
}
