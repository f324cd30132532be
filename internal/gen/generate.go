package gen

import (
	"errors"
	"fmt"

	"afforest/internal/graph"
)

// Generators lists the families Generate builds, in the order the CLIs'
// -gen help strings print them.
func Generators() []string {
	return []string{"urand", "kron", "road", "twitter", "web", "regular"}
}

// Generate builds the named family from the CLIs' shared flags: n
// vertices (every family but kron), 2^scale vertices (kron), and deg as
// the average degree, edge factor or attach count (every family but
// road).
func Generate(name string, n, scale, deg int, seed uint64) (*graph.CSR, error) {
	switch name {
	case "urand":
		return URandDegree(n, deg, seed), nil
	case "kron":
		return Kronecker(scale, deg, Graph500, seed), nil
	case "road":
		return Road(n, seed), nil
	case "twitter":
		return TwitterLike(n, deg, seed), nil
	case "web":
		return WebLike(n, deg, seed), nil
	case "regular":
		return Regular(n, deg, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// ErrNoSource is LoadOrGenerate's answer when neither a file nor a
// generator is named.
var ErrNoSource = errors.New("provide -in FILE or -gen NAME (try -gen urand)")

// LoadOrGenerate is the CLIs' -in/-gen rule: read the graph file at
// path (binary .csr or text edge list), or Generate the family name;
// exactly one of the two must be given.
func LoadOrGenerate(path, name string, n, scale, deg int, seed uint64) (*graph.CSR, error) {
	switch {
	case path != "" && name != "":
		return nil, errors.New("-in and -gen are mutually exclusive")
	case path != "":
		return graph.LoadFile(path)
	case name != "":
		return Generate(name, n, scale, deg, seed)
	}
	return nil, ErrNoSource
}
