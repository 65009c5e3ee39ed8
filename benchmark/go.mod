module snnmap/benchmark

go 1.22

require snnmap v0.0.0

replace snnmap => ../
