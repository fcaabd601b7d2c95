"""The wire layer: Router dispatch/error mapping and the stdlib HTTP
server + ServiceClient over a real socket.

`InProcessClient` proves the API; these tests prove the transport —
status codes, content types, malformed bodies, and the acceptance
scenario of two `ServiceClient`s racing suites against one live
server."""

import json
import socket
import threading

import pytest

from repro.service import (
    CampaignService,
    Router,
    ServiceClient,
    ServiceError,
    serving,
)
from repro.service.handlers import MAX_BODY_BYTES

from test_suite import tiny_suite


@pytest.fixture
def service(tmp_path):
    with CampaignService(str(tmp_path / "store"), workers=2) as svc:
        yield svc


class TestRouter:
    """Edge paths exercised without a socket — same code the server
    runs."""

    def route(self, service, method, path, body=None):
        status, content_type, payload = Router(service).route(
            method, path, body
        )
        return status, content_type, payload

    def test_unknown_route_is_404(self, service):
        status, _, body = self.route(service, "GET", "/nope")
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_malformed_body_is_400(self, service):
        status, _, body = self.route(service, "POST", "/suites", b"{nope")
        assert status == 400
        assert "error" in json.loads(body)

    def test_empty_and_non_object_bodies_are_400(self, service):
        assert self.route(service, "POST", "/suites")[0] == 400
        assert self.route(service, "POST", "/suites", b"[1]")[0] == 400

    def test_submission_without_suite_is_400(self, service):
        status, _, body = self.route(
            service, "POST", "/suites", json.dumps({"options": {}}).encode()
        )
        assert status == 400
        assert "suite" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, service):
        assert self.route(service, "GET", "/jobs/nope")[0] == 404

    def test_unknown_result_key_is_404(self, service):
        assert self.route(service, "GET", "/results/ffff")[0] == 404

    def test_query_strings_are_stripped(self, service):
        status, _, _ = self.route(service, "GET", "/healthz?probe=1")
        assert status == 200


class TestOverTheWire:
    def test_health_and_submit_over_a_real_socket(self, service):
        with serving(service) as url:
            assert url.startswith("http://127.0.0.1:")
            client = ServiceClient(url)
            assert client.health()["status"] == "ok"

            job = client.submit(tiny_suite())
            job = client.wait(job["job_id"], timeout=120)
            assert job["state"] == "done"
            assert len(job["result_keys"]) == 3
            assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]

            key = job["result_keys"][0]
            assert client.result(key)["kind"] == "campaign"
            lines = client.records(key).splitlines()
            assert lines and all(json.loads(line) for line in lines)

    def test_records_content_type_is_jsonl(self, service):
        with serving(service) as url:
            client = ServiceClient(url)
            job = client.wait(
                client.submit(tiny_suite())["job_id"], timeout=120
            )
            status, content_type, _ = client._request(
                "GET", f"/results/{job['result_keys'][0]}/records"
            )
            assert status == 200
            assert content_type == "application/x-ndjson"

    def test_error_statuses_cross_the_wire(self, service):
        with serving(service) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceError) as err:
                client.job("nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit(tiny_suite(), engine="quantum")
            assert err.value.status == 400

            job = client.wait(
                client.submit(tiny_suite())["job_id"], timeout=120
            )
            with pytest.raises(ServiceError) as err:
                client.cancel(job["job_id"])
            assert err.value.status == 409

    @staticmethod
    def raw_post(url, content_length, body=b"", close=False):
        """POST /suites with a hand-written Content-Length; returns
        (status, body) of the reply, read until the server closes (on
        its own unless ``close`` asks for it)."""
        host, port = url[len("http://"):].split(":")
        connection = "Connection: close\r\n" if close else ""
        request = (
            f"POST /suites HTTP/1.1\r\nHost: {host}\r\n{connection}"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode() + body
        with socket.create_connection((host, int(port)), timeout=10) as s:
            s.sendall(request)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split()[1]), payload

    @pytest.mark.parametrize(
        "content_length, status, message",
        [
            ("abc", 400, "must be an integer"),
            ("-5", 400, "must be >= 0"),
            ("999999999999", 413, "exceeds"),
            (str(MAX_BODY_BYTES + 1), 413, "exceeds"),
        ],
    )
    def test_bad_content_length_is_refused_in_one_line(
        self, service, content_length, status, message
    ):
        with serving(service) as url:
            code, payload = self.raw_post(url, content_length)
            assert code == status
            # one line of JSON, no traceback
            assert payload.count(b"\n") == 1
            assert message in json.loads(payload)["error"]
            # the server keeps serving
            assert ServiceClient(url).health()["status"] == "ok"

    def test_body_at_the_limit_is_read(self, service):
        body = json.dumps({"suite": "x" * (MAX_BODY_BYTES - 20)}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        with serving(service) as url:
            code, payload = self.raw_post(url, len(body), body, close=True)
        # read and parsed: refused as an unknown suite, not as too large
        assert code == 400
        assert "exceeds" not in json.loads(payload)["error"]

    def test_unreachable_server_raises_status_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0

    def test_two_service_clients_racing_one_server(self, service):
        # ISSUE acceptance: two ServiceClients submitting concurrently
        # against one server + one store both complete with verified
        # results
        with serving(service) as url:
            suites = [tiny_suite(cycles=64), tiny_suite(cycles=96)]
            done, errors = {}, []

            def run(tag, suite):
                try:
                    client = ServiceClient(url)
                    job = client.submit(suite)
                    done[tag] = client.wait(job["job_id"], timeout=120)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i, suite))
                for i, suite in enumerate(suites)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert {j["state"] for j in done.values()} == {"done"}
            checker = ServiceClient(url)
            for job in done.values():
                for key in job["result_keys"]:
                    assert checker.result(key)["sha256"]

    def test_job_table_survives_server_restart_over_http(self, tmp_path):
        root = str(tmp_path / "store")
        with CampaignService(root) as first:
            with serving(first) as url:
                client = ServiceClient(url)
                job = client.wait(
                    client.submit(tiny_suite())["job_id"], timeout=120
                )
                assert job["state"] == "done"

        with CampaignService(root) as second:
            with serving(second) as url:
                client = ServiceClient(url)
                survivor = client.job(job["job_id"])
                assert survivor["state"] == "done"
                assert client.records(job["result_keys"][0])
