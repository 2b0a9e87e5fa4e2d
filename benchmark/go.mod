module ocularone/benchmark

go 1.21

require ocularone v0.0.0

replace ocularone => ../
