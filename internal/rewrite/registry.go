package rewrite

import "fmt"

// RulesFor returns the curated rule library for one of the paper's five
// evaluation sets (the names of gateset.All), playing the role of QUESO's
// synthesized rule sets in the GUOQ instantiation (§6). Rule libraries are
// the only machinery keyed by a gate set's name: any other set has none,
// and optimizes with the τ₀ passes, resynthesis and the transformations a
// caller registers.
func RulesFor(gatesetName string) ([]*Rule, error) {
	switch gatesetName {
	case "nam":
		return namRules(), nil
	case "cliffordt":
		return cliffordTRules(), nil
	case "ibmq20":
		return ibmq20Rules(), nil
	case "ibm-eagle":
		return ibmEagleRules(), nil
	case "ionq":
		return ionqRules(), nil
	}
	return nil, fmt.Errorf("rewrite: no rule library for gate set %q", gatesetName)
}

// AllLibraries returns every built-in rule library keyed by gate set name,
// for exhaustive verification in tests.
func AllLibraries() map[string][]*Rule {
	return map[string][]*Rule{
		"nam":       namRules(),
		"cliffordt": cliffordTRules(),
		"ibmq20":    ibmq20Rules(),
		"ibm-eagle": ibmEagleRules(),
		"ionq":      ionqRules(),
	}
}
