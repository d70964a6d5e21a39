module calcite/benchmark

go 1.22

require calcite v0.0.0

replace calcite => ../
