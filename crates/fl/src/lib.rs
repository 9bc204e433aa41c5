//! From-scratch federated learning substrate.
//!
//! The paper's testbed experiments (Figs. 4 and 9) train ResNet-18 /
//! MobileNet-V2 on FEMNIST. What those figures actually demonstrate is
//! *scheduler-side* behaviour: (a) partitioning a device pool among more
//! jobs degrades each job's round-to-accuracy curve, and (b) Venn speeds up
//! wall-clock convergence without changing final accuracy. Both properties
//! depend only on having a federated task whose accuracy improves with more
//! (and more diverse) participants per round — so this crate implements
//! the smallest complete such stack from scratch:
//!
//! * [`FederatedDataset`] — synthetic non-IID federated classification data
//!   (Gaussian class clusters, Dirichlet label skew across clients);
//! * `SoftmaxModel` — a multinomial logistic-regression model with softmax
//!   cross-entropy SGD;
//! * [`FedAvg`] — FedAvg orchestration: local training on a participant
//!   set, weighted averaging, centralized accuracy evaluation.
//!
//! See `DESIGN.md` for the substitution argument.

mod dataset;
mod fedavg;
mod model;

pub use dataset::{FederatedDataset, FlDataConfig};
pub use fedavg::{FedAvg, FedAvgConfig};
