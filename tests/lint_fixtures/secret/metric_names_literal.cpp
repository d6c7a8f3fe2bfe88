// Fixture: metrics declared the way the tree declares them — layer, name
// and label values are all string literals. tools_secret_lint_test expects
// secret_lint to pass this file with no finding.

struct FixtureReactor {
  xsearch::metrics::Registry metrics_{"reactor"};
  xsearch::metrics::Counter& accepted_ = metrics_.counter("accepted");
  xsearch::metrics::Gauge& active_ = metrics_.gauge("active");
};

void fixture_label_part(xsearch::metrics::Snapshot& out,
                        const xsearch::metrics::Snapshot& part) {
  out.merge(part, "role", "primary");
}
