//! Skewed synthetic datasets that drive the application suites.
//!
//! The paper feeds FaaSChain from public web datasets and TrainTicket from
//! a real airline-ticket dataset (§VII). Neither is shipped here, so these
//! generators produce inputs with the *property that matters* for the
//! evaluation: heavy key skew, which is what gives the memoization tables
//! their high hit rates (a 50-entry table reaches ~96 % on TrainTicket,
//! 65–98 % on the more varied FaaSChain apps, §VIII-B).

use specfaas_sim::{SimRng, Zipf};
use specfaas_storage::{KvStore, Value};

/// A pool of user identities with Zipf-distributed popularity.
#[derive(Debug, Clone)]
pub struct UserPool {
    popularity: Zipf,
}

impl UserPool {
    /// A pool of `size` users with Zipf exponent `skew`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize, skew: f64) -> Self {
        UserPool {
            popularity: Zipf::new(size, skew),
        }
    }

    /// Draws a user id (e.g. `"user:17"`).
    pub fn draw(&self, rng: &mut SimRng) -> String {
        format!("user:{}", self.popularity.sample(rng))
    }

    /// Seeds credentials and balances for every user.
    pub fn seed(&self, kv: &mut KvStore, rng: &mut SimRng) {
        for i in 0..self.len() {
            kv.set(
                format!("cred:user:{i}"),
                Value::map([("secret", Value::Int(i as i64 * 31 + 7))]),
            );
            kv.set(
                format!("balance:user:{i}"),
                Value::Int(1_000 + rng.uniform_u64(9_000) as i64),
            );
        }
    }

    /// Number of users in the pool.
    pub fn len(&self) -> usize {
        self.popularity.len()
    }

    /// Always false (pools are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A synthetic route/ticket dataset shaped like the airline-ticket data
/// the paper uses for TrainTicket: a modest set of routes with strongly
/// skewed popularity.
#[derive(Debug, Clone)]
pub struct TicketDataset {
    routes: Zipf,
    dates: Zipf,
    fares: Vec<i64>,
    fare_classes: Zipf,
}

impl TicketDataset {
    /// The default dataset: 100 routes, Zipf 1.8, a handful of fare
    /// classes.
    pub fn standard() -> Self {
        let fares = vec![45, 80, 120, 200, 350];
        TicketDataset {
            routes: Zipf::new(100, 1.8),
            dates: Zipf::new(7, 2.0), // day-of-week bucket, strongly skewed
            fare_classes: Zipf::new(fares.len(), 1.8),
            fares,
        }
    }

    /// Draws a ticket request document: route, date bucket and fare class
    /// from small skewed pools so requests repeat.
    pub fn draw_request(&self, rng: &mut SimRng) -> Value {
        let route = self.routes.sample(rng);
        let date = self.dates.sample(rng);
        let fare = self.fares[self.fare_classes.sample(rng)];
        Value::map([
            ("route", Value::str(format!("route:{route}"))),
            ("date", Value::Int(date as i64)),
            ("fare", Value::Int(fare)),
        ])
    }

    /// Seeds route metadata, seat inventory, and prices.
    pub fn seed(&self, kv: &mut KvStore, rng: &mut SimRng) {
        for r in 0..self.routes() {
            kv.set(
                format!("routeinfo:route:{r}"),
                Value::map([
                    ("distance", Value::Int(100 + (r as i64 * 37) % 900)),
                    ("train", Value::str(format!("T{}", r % 20))),
                ]),
            );
            kv.set(
                format!("seats:route:{r}"),
                Value::Int(200 + rng.uniform_u64(300) as i64),
            );
            kv.set(
                format!("price:route:{r}"),
                Value::Int(40 + (r as i64 * 13) % 300),
            );
        }
    }

    /// Number of routes.
    pub fn routes(&self) -> usize {
        self.routes.len()
    }
}

/// A product catalog for the OnlinePurchase app.
#[derive(Debug, Clone)]
pub struct Catalog {
    products: Zipf,
}

impl Catalog {
    /// The default catalog: 200 products, Zipf 1.2.
    pub fn standard() -> Self {
        Catalog {
            products: Zipf::new(200, 1.2),
        }
    }

    /// Draws a product id.
    pub fn draw(&self, rng: &mut SimRng) -> String {
        format!("prod:{}", self.products.sample(rng))
    }

    /// Seeds stock and price records.
    pub fn seed(&self, kv: &mut KvStore, rng: &mut SimRng) {
        for p in 0..self.products.len() {
            kv.set(
                format!("stock:prod:{p}"),
                Value::Int(50 + rng.uniform_u64(200) as i64),
            );
            kv.set(
                format!("price:prod:{p}"),
                Value::Int(5 + (p as i64 * 7) % 500),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_pool_skew_repeats_heads() {
        let pool = UserPool::new(100, 1.3);
        let mut rng = SimRng::seed(1);
        let mut head = 0;
        for _ in 0..1_000 {
            if pool.draw(&mut rng) == "user:0" {
                head += 1;
            }
        }
        assert!(head > 100, "head user should be very popular, got {head}");
    }

    #[test]
    fn user_pool_seeding_creates_records() {
        let pool = UserPool::new(10, 1.0);
        let mut kv = KvStore::new();
        pool.seed(&mut kv, &mut SimRng::seed(2));
        assert_eq!(kv.len(), 20);
        assert!(kv.peek("cred:user:3").is_some());
        assert!(kv.peek("balance:user:9").is_some());
    }

    #[test]
    fn ticket_requests_repeat_under_skew() {
        let ds = TicketDataset::standard();
        let mut rng = SimRng::seed(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2_000 {
            *counts
                .entry(ds.draw_request(&mut rng).to_string())
                .or_insert(0u32) += 1;
        }
        // The 50 most common requests should cover most of the mass
        // (drives the 50-entry memo table hit rate).
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top50: u32 = freqs.iter().take(50).sum();
        assert!(
            top50 as f64 / 2_000.0 > 0.75,
            "top-50 coverage {}",
            top50 as f64 / 2_000.0
        );
    }

    #[test]
    fn ticket_seed_is_complete() {
        let ds = TicketDataset::standard();
        let mut kv = KvStore::new();
        ds.seed(&mut kv, &mut SimRng::seed(4));
        assert_eq!(kv.len(), ds.routes() * 3);
    }

    #[test]
    fn catalog_draw_and_seed() {
        let c = Catalog::standard();
        let mut kv = KvStore::new();
        c.seed(&mut kv, &mut SimRng::seed(5));
        let id = c.draw(&mut SimRng::seed(6));
        assert!(kv.peek(&format!("stock:{id}")).is_some());
    }
}
