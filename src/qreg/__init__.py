"""Quantization-aware training as a regularizer against noisy labels.

A small float64 experiment stack: a reverse-mode autodiff core, dense and
convolutional layers, fake quantization with straight-through gradients,
structured magnitude pruning, classic regularizers, synthetic datasets with
controlled label corruption, and sweep commands that compare all of them
under identical conditions.

The package root re-exports nothing: import each name from the module that
defines it (qreg.layers, qreg.training, qreg.experiments, ...).
"""
