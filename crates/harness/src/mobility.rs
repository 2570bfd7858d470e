//! Mobility scripts: random-waypoint and heterogeneous-mix command
//! generators.

use manet_sim::{Command, NodeId, Position, SimRng, SimTime};

/// Parameters of a random-waypoint mobility script.
#[derive(Clone, Debug)]
pub struct WaypointPlan {
    /// Side of the square area nodes roam in.
    pub area_side: f64,
    /// Number of movement events over the horizon.
    pub moves: usize,
    /// Time window movements are sampled from.
    pub window: (u64, u64),
    /// Movement speed (distance units per tick); `None` teleports instead.
    pub speed: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl WaypointPlan {
    /// Generate the movement commands for `n` nodes, sorted by time.
    pub fn commands(&self, n: usize) -> Vec<(SimTime, Command)> {
        assert!(n > 0, "no nodes to move");
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x4d4f_4245);
        let (a, b) = self.window;
        let mut out: Vec<(SimTime, Command)> = (0..self.moves)
            .map(|_| {
                let t = SimTime(rng.gen_range(a..=b.max(a)));
                let node = NodeId(rng.gen_range(0..n as u32));
                let dest = Position {
                    x: rng.gen_f64() * self.area_side,
                    y: rng.gen_f64() * self.area_side,
                };
                let cmd = match self.speed {
                    Some(speed) => Command::StartMove { node, dest, speed },
                    None => Command::Teleport { node, dest },
                };
                (t, cmd)
            })
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

/// How nodes move in a run: not at all, by random waypoint, or by a
/// heterogeneous mix.
#[derive(Clone, Debug, Default)]
pub enum Mobility {
    /// Nobody moves.
    #[default]
    Static,
    /// Random-waypoint movements.
    Waypoints(WaypointPlan),
    /// Heterogeneous mobility classes.
    Mix(MobilityMix),
}

impl Mobility {
    /// The movement commands for `n` nodes, with the model's RNG seeded
    /// from `seed` (so every run of a sweep moves on its own schedule).
    pub fn commands(&self, n: usize, seed: u64) -> Vec<(SimTime, Command)> {
        match self {
            Mobility::Static => Vec::new(),
            Mobility::Waypoints(plan) => WaypointPlan {
                seed,
                ..plan.clone()
            }
            .commands(n),
            Mobility::Mix(mix) => MobilityMix {
                seed,
                ..mix.clone()
            }
            .commands(n),
        }
    }
}

/// The mobility class a node belongs to under a [`MobilityMix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeClass {
    /// Never moves: the stable backbone of the topology.
    StaticCore,
    /// Commutes back and forth across the area on a fixed lane —
    /// long-range, link-churning motion.
    Highway,
    /// Wanders with its cluster: members of one group share a waypoint
    /// center and jitter around it, so the group's internal links survive
    /// while its external links churn.
    Group,
}

/// Heterogeneous mobility: a per-node-class mix of static-core, highway
/// and group-waypoint motion — the three regimes real MANET traces blend,
/// where uniform random waypoint is homogeneous.
///
/// Node classes are assigned by index: the first `static_frac · n` nodes
/// form the static core, the next `highway_frac · n` commute on highway
/// lanes, and the rest wander in clusters of [`MobilityMix::GROUP_SIZE`].
/// All randomness comes from a dedicated stream seeded from
/// [`MobilityMix::seed`]; like [`WaypointPlan`], the same spec always
/// produces the same command list.
#[derive(Clone, Debug, PartialEq)]
pub struct MobilityMix {
    /// Side of the square area nodes roam in.
    pub area_side: f64,
    /// Fraction of nodes (by index, from 0) that never move.
    pub static_frac: f64,
    /// Fraction of nodes commuting on highway lanes.
    pub highway_frac: f64,
    /// Movement events per mobile node over the window.
    pub moves_per_node: usize,
    /// Time window movements are sampled from.
    pub window: (u64, u64),
    /// Movement speed (distance units per tick).
    pub speed: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MobilityMix {
    fn default() -> MobilityMix {
        MobilityMix {
            area_side: 8.0,
            static_frac: 0.4,
            highway_frac: 0.3,
            moves_per_node: 4,
            window: (100, 4_000),
            speed: 0.2,
            seed: 0,
        }
    }
}

impl MobilityMix {
    /// Cluster size of the group-waypoint class.
    pub const GROUP_SIZE: usize = 4;

    /// Parse a CLI mix spec `"<static_frac>:<highway_frac>"` (the rest of
    /// the nodes are group-waypoint), e.g. `"0.4:0.3"`. Other fields take
    /// their defaults; callers override them afterwards.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the fractions are malformed, outside
    /// `[0, 1]`, or sum past 1.
    pub fn parse(spec: &str) -> Result<MobilityMix, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 2 {
            return Err("mix spec: <static_frac>:<highway_frac>, e.g. 0.4:0.3".into());
        }
        let frac = |s: &str, name: &str| -> Result<f64, String> {
            let v: f64 = s
                .parse()
                .map_err(|_| format!("mix spec: bad {name} '{s}'"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("mix spec: {name} ({v}) must be in [0, 1]"));
            }
            Ok(v)
        };
        let static_frac = frac(parts[0], "static_frac")?;
        let highway_frac = frac(parts[1], "highway_frac")?;
        if static_frac + highway_frac > 1.0 {
            return Err(format!(
                "mix spec: fractions sum to {} > 1",
                static_frac + highway_frac
            ));
        }
        Ok(MobilityMix {
            static_frac,
            highway_frac,
            ..MobilityMix::default()
        })
    }

    /// The class of every node, by index — a pure function of the spec
    /// and `n`.
    pub fn classes(&self, n: usize) -> Vec<NodeClass> {
        let n_static = ((n as f64 * self.static_frac).round() as usize).min(n);
        let n_highway = ((n as f64 * self.highway_frac).round() as usize).min(n - n_static);
        (0..n)
            .map(|i| {
                if i < n_static {
                    NodeClass::StaticCore
                } else if i < n_static + n_highway {
                    NodeClass::Highway
                } else {
                    NodeClass::Group
                }
            })
            .collect()
    }

    /// Generate the movement commands for `n` nodes, sorted by time.
    /// Static-core nodes get none; highway nodes alternate ends of their
    /// lane; each group cluster shares a per-round waypoint center with
    /// per-member jitter.
    pub fn commands(&self, n: usize) -> Vec<(SimTime, Command)> {
        assert!(n > 0, "no nodes to move");
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x4d49_5845);
        let classes = self.classes(n);
        let (a, b) = self.window;
        let b = b.max(a);
        let side = self.area_side;
        let mut out: Vec<(SimTime, Command)> = Vec::new();
        let highway: Vec<NodeId> = (0..n)
            .filter(|&i| classes[i] == NodeClass::Highway)
            .map(|i| NodeId(i as u32))
            .collect();
        for (lane, &node) in highway.iter().enumerate() {
            let lane_y = side * (lane + 1) as f64 / (highway.len() + 1) as f64;
            let mut times: Vec<u64> = (0..self.moves_per_node)
                .map(|_| rng.gen_range(a..=b))
                .collect();
            times.sort_unstable();
            for (m, t) in times.into_iter().enumerate() {
                let x = if m % 2 == 0 { side } else { 0.0 };
                out.push((
                    SimTime(t),
                    Command::StartMove {
                        node,
                        dest: Position { x, y: lane_y },
                        speed: self.speed,
                    },
                ));
            }
        }
        let group: Vec<NodeId> = (0..n)
            .filter(|&i| classes[i] == NodeClass::Group)
            .map(|i| NodeId(i as u32))
            .collect();
        for cluster in group.chunks(Self::GROUP_SIZE) {
            for _ in 0..self.moves_per_node {
                let t0 = rng.gen_range(a..=b);
                let cx = rng.gen_f64() * side;
                let cy = rng.gen_f64() * side;
                for &node in cluster {
                    let jitter = side * 0.05;
                    let dx = (rng.gen_f64() - 0.5) * 2.0 * jitter;
                    let dy = (rng.gen_f64() - 0.5) * 2.0 * jitter;
                    let lag = rng.gen_range(0u64..=5);
                    out.push((
                        SimTime(t0.saturating_add(lag)),
                        Command::StartMove {
                            node,
                            dest: Position {
                                x: (cx + dx).clamp(0.0, side),
                                y: (cy + dy).clamp(0.0, side),
                            },
                            speed: self.speed,
                        },
                    ));
                }
            }
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let plan = WaypointPlan {
            area_side: 10.0,
            moves: 20,
            window: (100, 900),
            speed: Some(0.3),
            seed: 5,
        };
        let a = plan.commands(8);
        let b = plan.commands(8);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        for (t, cmd) in &a {
            assert!(t.0 >= 100 && t.0 <= 900);
            assert!(matches!(cmd, Command::StartMove { .. }));
        }
    }

    #[test]
    fn mix_classes_partition_by_fraction() {
        let mix = MobilityMix {
            static_frac: 0.5,
            highway_frac: 0.25,
            ..MobilityMix::default()
        };
        let classes = mix.classes(8);
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == NodeClass::StaticCore)
                .count(),
            4
        );
        assert_eq!(
            classes.iter().filter(|c| **c == NodeClass::Highway).count(),
            2
        );
        assert_eq!(
            classes.iter().filter(|c| **c == NodeClass::Group).count(),
            2
        );
        // All-static mix: nobody moves.
        let frozen = MobilityMix {
            static_frac: 1.0,
            highway_frac: 0.0,
            ..MobilityMix::default()
        };
        assert!(frozen.commands(8).is_empty());
    }

    #[test]
    fn mix_commands_are_deterministic_and_spare_the_core() {
        let mix = MobilityMix {
            static_frac: 0.5,
            highway_frac: 0.25,
            seed: 11,
            ..MobilityMix::default()
        };
        let a = mix.commands(8);
        assert_eq!(a, mix.commands(8));
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
        let classes = mix.classes(8);
        for (_, cmd) in &a {
            let Command::StartMove { node, dest, .. } = cmd else {
                panic!("mix emits StartMove only");
            };
            assert_ne!(
                classes[node.index()],
                NodeClass::StaticCore,
                "static-core nodes must never move"
            );
            assert!(dest.x >= 0.0 && dest.x <= mix.area_side);
            assert!(dest.y >= 0.0 && dest.y <= mix.area_side);
        }
        // A different seed reshuffles the schedule.
        let b = MobilityMix { seed: 12, ..mix }.commands(8);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_parse_validates() {
        let mix = MobilityMix::parse("0.4:0.3").unwrap();
        assert_eq!(mix.static_frac, 0.4);
        assert_eq!(mix.highway_frac, 0.3);
        for bad in ["0.4", "x:0.3", "0.7:0.7", "-0.1:0.5", "1:2:3"] {
            assert!(MobilityMix::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn teleport_variant() {
        let plan = WaypointPlan {
            area_side: 5.0,
            moves: 3,
            window: (1, 10),
            speed: None,
            seed: 9,
        };
        assert!(plan
            .commands(4)
            .iter()
            .all(|(_, c)| matches!(c, Command::Teleport { .. })));
    }
}
