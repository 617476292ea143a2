"""Unsupervised frame-level domain adaptation with domain separation networks."""
