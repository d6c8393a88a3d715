module fishstore/benchmark

go 1.22

require fishstore v0.0.0

replace fishstore => ../
