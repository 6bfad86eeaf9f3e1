module github.com/recursive-restart/mercury/benchmark

go 1.22

require github.com/recursive-restart/mercury v0.0.0

replace github.com/recursive-restart/mercury => ../
