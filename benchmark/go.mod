module cortenmm/benchmark

go 1.24

require cortenmm v0.0.0

replace cortenmm => ../
