module haralick4d/bench

go 1.22

require haralick4d v0.0.0

replace haralick4d => ../
