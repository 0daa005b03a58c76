// Package baddir is a malformed-directive fixture: a reasonless
// //bzlint:ordered and each unknown directive verb produce a
// meta-diagnostic, and the reasonless waiver does not suppress the
// map-range diagnostic it sits on. The guards and holds verbs belonged to
// a retired lock analyzer; a leftover use must be reported, not ignored.
package baddir

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//bzlint:ordered
	for k := range m {
		out = append(out, k)
	}
	return out
}

//bzlint:frobnicate not a directive
func other() {}

//bzlint:guards mu n
type counter struct{ n int }

//bzlint:holds mu
func (c *counter) bump() { c.n++ }
