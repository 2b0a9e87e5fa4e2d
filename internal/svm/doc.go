// Package svm implements a linear support-vector machine trained with
// the Pegasos stochastic sub-gradient algorithm. The Ocularone
// application (§3 of the paper) feeds body-pose features into an SVM to
// detect fall scenarios; this package is that classifier. Training has
// one input besides the data, the seed that orders each pass; the
// regularisation strength and the number of passes are constants.
package svm
