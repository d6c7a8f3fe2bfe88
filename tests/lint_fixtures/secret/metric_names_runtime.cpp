// Fixture: metric series named from run-time values — a session id, a
// query and a user name. tools_secret_lint_test expects secret_lint to
// flag each of the three declarations (metric-name-literal).

void fixture_per_session(xsearch::metrics::Registry& registry,
                         const std::string& session_id) {
  (void)registry.counter("queries_" + session_id);
}

void fixture_label_by_query(xsearch::metrics::Snapshot& out,
                            const xsearch::metrics::Snapshot& part,
                            const std::string& query) {
  out.merge(part, "query", query);
}

void fixture_layer_per_user(const std::string& user_name) {
  xsearch::metrics::Registry per_user{user_name};
}
