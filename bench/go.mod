module github.com/smartgrid/aria/bench

go 1.23

require github.com/smartgrid/aria v0.0.0

replace github.com/smartgrid/aria => ../
