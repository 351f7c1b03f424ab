"""Adaptive drone navigation on voxel worlds.

A navigation network whose width (compute) and sensor power levels
(sensing) shrink to match terrain difficulty: a slimmable MLP is
distillation-trained against length-optimal paths, then a TD3-trained
auxiliary network picks the slimming factor or sensor powers step by step.
"""
from .errors import (ConfigError, ConstraintViolation, DependencyError,
                     LoadError, NoPathError, SensorError, TrainingError)
from .worldsim import (DroneState, FifoQueue, Flight, ObservationLayout,
                       SensorConfig, VoxelGrid, cast_rays, generate_world,
                       load_world, save_world, sense, step)
from .slimnet import (Adam, MLPSpec, SlimMask, SlimmableMLP, active_params,
                      active_width, load_weights, save_weights)
from .pathoracle import (LabeledDataset, MapGraph, OptimalPath, Task,
                         TaskSampler, astar, build_graph, label_dataset,
                         load_dataset, load_paths, partition_regions,
                         path_cost, save_dataset, save_paths)
from .distill import (DistillConfig, TrainReport, rmse_by_power, rmse_by_rho,
                      train_navigation)
from .auxtrain import (AuxConfig, ConstraintConfig, Curriculum, EpisodeLog,
                       EtaReport, GateReport, ReplayBuffer, RewardWeights,
                       TD3Agent, TD3Config, action_bounds, compute_eta,
                       decode_action, fly_tasks, format_percent, length_ratio,
                       reward, run_episode, success_rate, train_auxiliary)
from .cli import ExperimentConfig, main

__version__ = "0.1.0"
