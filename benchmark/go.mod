module wbcast/benchmark

go 1.24

require wbcast v0.0.0

replace wbcast => ../
