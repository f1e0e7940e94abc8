package engine

import "icsdetect/internal/core"

// StreamSession returns the session a stream's shard holds, nil once the
// stream is released. The shard worker owns that state: call it only while
// the shard is idle, after a Barrier.
func (e *Engine) StreamSession(stream string) *core.Session {
	if st := e.shardFor(stream).streams[stream]; st != nil {
		return st.sess
	}
	return nil
}
