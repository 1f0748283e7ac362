package faultcast

// CompileOn exports compileOn to the external benchmarks.
var CompileOn = compileOn

// WithZ sets the Wilson band of the target check, the EstimateOption twin
// of CellBudget.Z, which Estimate's own options leave at its default.
func WithZ(z float64) EstimateOption {
	return func(o *estimateOptions) { o.stop.Z = z }
}
