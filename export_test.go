package faultcast

// CompileOn exports compileOn to the external benchmarks.
var CompileOn = compileOn
