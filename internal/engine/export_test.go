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

// ShardBatches returns, per shard, the framework of each micro-batch the
// shard holds. Like StreamSession, call it only after a Barrier.
func (e *Engine) ShardBatches() [][]*core.Framework {
	out := make([][]*core.Framework, len(e.shards))
	for i, s := range e.shards {
		for _, fb := range s.batches {
			out[i] = append(out[i], fb.key.fw)
		}
	}
	return out
}
