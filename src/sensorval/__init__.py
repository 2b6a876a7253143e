"""Anytime probabilistic sensor validation.

Detection: a Bayesian network over sensor variables predicts each sensor
from its Markov blanket and flags apparently faulty readings. Isolation:
a two-layer noisy-OR causal network turns apparent faults into per-sensor
real-fault probabilities. The anytime controller validates the most
informative sensor first and scores the partial answer after every step.
"""

from .model import (BayesNet, Cpt, CycleError, CptError, EmbTable,
                    NetworkError, NetworkStructure, UnknownVariableError,
                    Variable, emb_table, extended_markov_blanket,
                    load_network, load_structure, markov_blanket,
                    save_network, save_structure)
from .inference import (Distribution, InconsistentEvidenceError,
                        NoisyOrParams, brute_force_posterior, noisy_or_row,
                        posterior_marginal)
from .detection import (ApparentStatus, DetectionCriterion, Discretizer,
                        discretizer_from_json, discretizer_to_json,
                        fit_discretizer, predict_distribution,
                        validate_sensor)
from .isolation import (IsolationNet, build_isolation_network, declare_faults,
                        fault_belief)
from .anytime import (DecisionTree, StepRecord, average_entropy,
                      binary_entropy, compile_decision_tree,
                      conditional_average_entropy, prune_single_fault,
                      quality, run_anytime_validation, select_next_sensor,
                      single_fault_consistent, tree_from_json, tree_to_json)
from .harness import (Dataset, ErrorReport, ExperimentRecord, FaultSpec,
                      compare_selection_policies, evaluate_errors,
                      generate_synthetic_dataset, inject_fault,
                      learn_parameters, random_tree_structure,
                      reference_structure, run_fault_experiments,
                      split_dataset)

__version__ = "0.1.0"
