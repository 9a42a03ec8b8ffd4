package baselines

import "fmt"

// Table3 lists the state-of-the-art comparators of the paper's Table 3
// (superoptimizers and fixed-pass tools) as implemented here.
func Table3(eps float64) []Optimizer {
	return []Optimizer{
		NewQiskit(),
		NewTket(),
		NewVOQC(),
		NewBQSKit(eps),
		NewQUESO(),
		NewQuartz(),
		NewQuarl(),
	}
}

// ByName resolves a tool name (paper spelling, lower case) to an optimizer.
func ByName(name string, eps float64) (Optimizer, error) {
	switch name {
	case "qiskit":
		return NewQiskit(), nil
	case "tket":
		return NewTket(), nil
	case "voqc":
		return NewVOQC(), nil
	case "bqskit":
		return NewBQSKit(eps), nil
	case "synthetiq":
		return NewSynthetiqPartition(eps), nil
	case "queso":
		return NewQUESO(), nil
	case "quartz":
		return NewQuartz(), nil
	case "quarl":
		return NewQuarl(), nil
	case "pyzx":
		return NewPyZX(), nil
	case "guoq":
		return NewGUOQ(eps), nil
	case "portfolio":
		return NewPortfolio(eps, 0), nil
	case "partition-parallel":
		return NewPartitionParallel(eps, 0), nil
	case "guoq-rewrite":
		return NewGUOQVariant("guoq-rewrite", ModeRewrite, eps), nil
	case "guoq-resynth":
		return NewGUOQVariant("guoq-resynth", ModeResynth, eps), nil
	case "guoq-seq-rewrite-resynth":
		return NewGUOQVariant("guoq-seq-rewrite-resynth", ModeSeqRewriteResynth, eps), nil
	case "guoq-seq-resynth-rewrite":
		return NewGUOQVariant("guoq-seq-resynth-rewrite", ModeSeqResynthRewrite, eps), nil
	case "guoq-beam":
		return NewGUOQVariant("guoq-beam", ModeBeam, eps), nil
	}
	return nil, fmt.Errorf("baselines: unknown tool %q", name)
}
