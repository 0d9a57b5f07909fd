module pier/benchmark

go 1.22

require pier v0.0.0

replace pier => ../
