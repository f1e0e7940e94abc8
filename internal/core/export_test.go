package core

// DynamicK returns the current adaptive k of the session's lstm-dynamic
// level, or -1 when its stack has none.
func DynamicK(s *Session) int {
	for _, st := range s.states {
		if d, ok := st.(*dynamicState); ok {
			return d.k
		}
	}
	return -1
}
