package serve

// SetIngestBurst caps how many packages one ingest admission carries
// (default ingestBurst). Call it before ListenIngest.
func (s *Server) SetIngestBurst(n int) { s.burst = n }
