package core

import (
	"fmt"
	"strings"
)

// MethodInfo is one row of the method registry: the single source of
// truth for a method's canonical (paper-style) name, the spellings the
// CLIs and the serving daemon accept, and whether it runs on more than
// one rank. cmd/lowrank usage text, serve.Spec validation
// and core dispatch all derive from this table, so adding a method in
// one place cannot skew flag validation, usage text and 422
// classification against each other.
type MethodInfo struct {
	Method  Method
	Name    string   // canonical name, as the paper writes it
	Aliases []string // additional accepted spellings
	Dist    bool     // accepts Procs > 1 (every method runs on a one-rank world)
}

// methodTable is ordered as the methods appear in docs and usage text.
var methodTable = []MethodInfo{
	{RandQBEI, "RandQB_EI", []string{"randqb", "qb"}, true},
	{RandUBV, "RandUBV", []string{"randubv", "ubv"}, true},
	{LUCRTP, "LU_CRTP", []string{"lucrtp", "lu"}, true},
	{ILUTCRTP, "ILUT_CRTP", []string{"ilutcrtp", "ilut"}, true},
	{TSVD, "TSVD", []string{"tsvd", "svd"}, false},
	{RSVDRestart, "RSVD", []string{"rsvd"}, false},
	{ARRF, "ARRF", []string{"arrf"}, false},
	{CUR, "CUR", []string{"cur"}, false},
	{TwoSidedID, "ID2", []string{"id2", "id"}, false},
	{ACA, "ACA", []string{"aca"}, false},
}

// methodInfo looks m up in the registry.
func methodInfo(m Method) (MethodInfo, bool) {
	for _, mi := range methodTable {
		if mi.Method == m {
			return mi, true
		}
	}
	return MethodInfo{}, false
}

// String names the method as the paper does.
func (m Method) String() string {
	if mi, ok := methodInfo(m); ok {
		return mi.Name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// DistCapable reports whether the method accepts Procs > 1. Every
// method reports its modeled times at Procs ≤ 1.
func (m Method) DistCapable() bool {
	mi, ok := methodInfo(m)
	return ok && mi.Dist
}

// ParseMethod resolves the paper-style method names and their CLI
// aliases against the registry.
func ParseMethod(s string) (Method, error) {
	for _, mi := range methodTable {
		if s == mi.Name {
			return mi.Method, nil
		}
		for _, a := range mi.Aliases {
			if s == a {
				return mi.Method, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown method %q", s)
}

// MethodUsage renders the canonical names as flag usage text
// ("RandQB_EI | RandUBV | ... | ACA").
func MethodUsage() string {
	names := make([]string, len(methodTable))
	for i, mi := range methodTable {
		names[i] = mi.Name
	}
	return strings.Join(names, " | ")
}
