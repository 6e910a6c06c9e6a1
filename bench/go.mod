module vnettracer/bench

go 1.22

require vnettracer v0.0.0

replace vnettracer => ../
