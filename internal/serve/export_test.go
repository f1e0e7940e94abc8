package serve

// SetIngestBurst caps how many packages one ingest admission carries
// (default ingestBurst). Call it before ListenIngest.
func (s *Server) SetIngestBurst(n int) { s.burst = n }

// SetSwapLimit caps a /swap request body at n bytes (default maxSwapBody).
func (s *Server) SetSwapLimit(n int64) { s.swapLimit = n }

// StatsResponse is the /stats JSON document.
type StatsResponse = statsResponse
